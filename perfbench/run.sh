#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary, temporary profile
# stores and the traced run's spans. The module replaces gpumech with the
# enclosing checkout, so outside a full checkout the build fails and the
# script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
cd "$root"
exec "$out/bin/perfbench" "$@"
