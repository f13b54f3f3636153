// Package coalesce implements the memory-access coalescer of a SIMT core:
// the per-lane byte addresses of one warp memory instruction are merged
// into the minimal set of aligned line-sized memory requests.
//
// The degree of memory divergence — how many requests one instruction
// generates, from 1 (fully coalesced) to the SIMT width (fully diverged) —
// is the central workload property GPUMech's resource-contention model
// depends on (Section IV-B of the paper).
package coalesce

import "slices"

// Lines returns the sorted unique line base addresses touched by the given
// per-lane accesses. Each access covers [addr, addr+accessBytes). lineBytes
// must be a power of two.
func Lines(addrs []uint64, accessBytes, lineBytes int) []uint64 {
	return LinesInto(nil, addrs, accessBytes, lineBytes)
}

// LinesInto is Lines appending into dst (which is overwritten from
// length 0), letting callers on a hot path reuse one buffer across
// instructions instead of allocating per record.
func LinesInto(dst []uint64, addrs []uint64, accessBytes, lineBytes int) []uint64 {
	if len(addrs) == 0 {
		return nil
	}
	mask := ^uint64(lineBytes - 1)
	out := dst[:0]
	seen := func(line uint64) bool {
		for _, l := range out {
			if l == line {
				return true
			}
		}
		return false
	}
	for _, a := range addrs {
		first := a & mask
		last := (a + uint64(accessBytes) - 1) & mask
		for line := first; ; line += uint64(lineBytes) {
			if !seen(line) {
				out = append(out, line)
			}
			if line == last {
				break
			}
		}
	}
	slices.Sort(out) // the lines are distinct, so any sort orders them alike
	return out
}

// Degree returns the memory divergence degree of an instruction: the
// number of requests divided by the minimum possible for the given number
// of active lanes. 1.0 means fully coalesced.
func Degree(numReqs, activeLanes, accessBytes, lineBytes int) float64 {
	if activeLanes == 0 || numReqs == 0 {
		return 0
	}
	lanesPerLine := lineBytes / accessBytes
	if lanesPerLine < 1 {
		lanesPerLine = 1
	}
	minReqs := (activeLanes + lanesPerLine - 1) / lanesPerLine
	return float64(numReqs) / float64(minReqs)
}
