package main

import "time"

// Per-layer metrics of a traced run. Per-call figures cover every call
// the run made to the layer (set-up, reference and timed ops); per-op
// figures and self-time shares cover the traced phase's ops only.
// Counts come from the program's own counters, read through the
// Observer attached to the real ops or the backends' registries.

// opLayers are the layers whose self time is attributed inside an op.
var opLayers = []string{"emu", "check", "cache", "interval", "core_cluster",
	"multiwarp", "contention", "cpistack", "timing"}

type callStats struct {
	n     int
	self  time.Duration
	alloc uint64
	work  int64
}

func layerMetrics(spans []spanRec, ops int, c0, c1 map[string]float64) map[string]metric {
	byID := make(map[int64]spanRec, len(spans))
	childTime := map[int64]time.Duration{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	inOp := func(s spanRec) bool {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.Name == "op"
	}
	all := map[string]*callStats{}
	opSelf := map[string]time.Duration{}
	opCalls := map[string]int{}
	var opTotal time.Duration
	for _, s := range spans {
		self := s.dur() - childTime[s.ID]
		st := all[s.Name]
		if st == nil {
			st = &callStats{}
			all[s.Name] = st
		}
		st.n++
		st.self += self
		st.alloc += s.Alloc
		st.work += s.Work
		if s.Name == "op" {
			opTotal += s.dur()
		}
		if inOp(s) {
			opSelf[s.Name] += self
			opCalls[s.Name]++
		}
	}

	m := map[string]metric{}
	put := func(k string, v float64, unit string) { m[k] = metric{v, unit} }
	perCall := func(layer string, unit time.Duration) float64 {
		st := all[layer]
		if st == nil || st.n == 0 {
			return 0
		}
		return float64(st.self) / float64(unit) / float64(st.n)
	}
	allocPerCall := func(layer string) float64 {
		st := all[layer]
		if st == nil || st.n == 0 {
			return 0
		}
		return float64(st.alloc) / mb / float64(st.n)
	}
	mips := func(layer string) float64 {
		st := all[layer]
		if st == nil || st.self <= 0 {
			return 0
		}
		return float64(st.work) / st.self.Seconds() / 1e6
	}
	d := func(k string) float64 { return c1[k] - c0[k] }
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / float64(ops)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	put("emu.ms_per_call", perCall("emu", time.Millisecond), "ms")
	put("emu.minsts_per_s", mips("emu"), "Minst/s")
	put("emu.alloc_mb_per_call", allocPerCall("emu"), "MB")
	put("emu.calls_per_op", perOp(d("trace.kernels")), "count")
	put("check.ms_per_call", perCall("check", time.Millisecond), "ms")
	put("cache.ms_per_call", perCall("cache", time.Millisecond), "ms")
	misses, hits := d("cache.profile.memo_misses"), d("cache.profile.memo_hits")
	put("cache.calls_per_op", perOp(misses), "count")
	put("cache.memo_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("interval.ms_per_call", perCall("interval", time.Millisecond), "ms")
	put("interval.calls_per_op", perOp(float64(opCalls["interval"])), "count")
	put("interval.warps_per_op", perOp(d("interval.warps_profiled")), "count")
	put("interval.alloc_mb_per_call", allocPerCall("interval"), "MB")
	put("core_cluster.ms_per_call", perCall("core_cluster", time.Millisecond), "ms")
	put("core_cluster.calls_per_op", perOp(float64(opCalls["core_cluster"])), "count")
	put("multiwarp.us_per_call", perCall("multiwarp", time.Microsecond), "us")
	put("contention.us_per_call", perCall("contention", time.Microsecond), "us")
	put("cpistack.us_per_call", perCall("cpistack", time.Microsecond), "us")
	put("timing.ms_per_call", perCall("timing", time.Millisecond), "ms")
	put("timing.minsts_per_s", mips("timing"), "Minst/s")
	put("timing.alloc_mb_per_call", allocPerCall("timing"), "MB")
	put("timing.calls_per_op", perOp(d("oracle.runs")), "count")
	put("runjson.us_per_call", perCall("runjson", time.Microsecond), "us")

	reads, storeHits := d("store.hits")+d("store.misses"), d("store.hits")
	put("store.get_ms", perCall("store.get", time.Millisecond), "ms")
	put("store.put_ms", perCall("store.put", time.Millisecond), "ms")
	put("store.reads_per_op", perOp(reads), "count")
	put("store.read_mb_per_op", perOp(d("store.read_bytes"))/mb, "MB")
	put("store.hit_ratio", ratio(storeHits, reads), "ratio")
	put("store.corrupt", c1["store.corrupt"], "count")

	// The backends' stage histograms split their request time; the
	// gateway's share is what the client waited beyond it.
	backendS := d("serve.request.seconds.sum")
	put("serve.decode_ms", perOp(1e3*d("serve.stage.decode.seconds.sum")), "ms")
	put("serve.session_ms", perOp(1e3*d("serve.stage.session.seconds.sum")), "ms")
	put("serve.estimate_ms", perOp(1e3*d("serve.stage.estimate.seconds.sum")), "ms")
	put("serve.encode_ms", perOp(1e3*d("serve.stage.encode.seconds.sum")), "ms")
	put("serve.evictions_per_op", perOp(d("serve.sessions.evicted")), "count")
	put("serve.shed_per_op", perOp(d("serve.shed")), "count")
	var gatewayS float64
	if backendS > 0 {
		gatewayS = opSelf["http"].Seconds() - backendS
	}
	put("gateway.overhead_ms", perOp(1e3*gatewayS), "ms")
	put("gateway.failover_per_op", perOp(d("cluster.failover")), "count")

	// Self-time shares of the traced ops: each layer's self time inside
	// op spans, and what no layer span covers.
	share := func(v time.Duration) float64 {
		if opTotal <= 0 {
			return 0
		}
		return 100 * float64(v) / float64(opTotal)
	}
	for _, l := range opLayers {
		put(l+".self_pct", share(opSelf[l]), "%")
	}
	put("serve.self_pct", share(time.Duration(backendS*float64(time.Second))), "%")
	put("gateway.self_pct", share(time.Duration(gatewayS*float64(time.Second))), "%")
	put("bench.unattributed_pct", share(opSelf["op"]), "%")
	return m
}
