package timing

import "slices"

// mshrFile models a core's miss-status holding registers: a bounded set of
// in-flight line misses with same-line merging. Entries free when their
// fill completes.
type mshrFile struct {
	entries  int
	inflight map[uint64]int64 // line -> completion cycle
	releases releaseHeap
	scratch  []int64 // kthRelease's sort buffer, reused across calls
}

type release struct {
	cycle int64
	line  uint64
}

// releaseHeap is a min-heap of releases by cycle. It is container/heap's
// algorithm on a concrete type, so pushes and pops do not box each
// release into an interface.
type releaseHeap []release

func (h *releaseHeap) push(r release) {
	*h = append(*h, r)
	h.up(len(*h) - 1)
}

func (h *releaseHeap) pop() release {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	h.down(0, n)
	r := old[n]
	*h = old[:n]
	return r
}

func (h releaseHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[j].cycle >= h[i].cycle {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h releaseHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].cycle < h[j1].cycle {
			j = j2 // right child
		}
		if h[j].cycle >= h[i].cycle {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func newMSHRFile(entries int) *mshrFile {
	return &mshrFile{entries: entries, inflight: make(map[uint64]int64)}
}

// purge frees entries whose fills completed at or before now, returning
// how many entries were released.
func (m *mshrFile) purge(now int64) int {
	freed := 0
	for len(m.releases) > 0 && m.releases[0].cycle <= now {
		r := m.releases.pop()
		if c, ok := m.inflight[r.line]; ok && c == r.cycle {
			delete(m.inflight, r.line)
			freed++
		}
	}
	return freed
}

// free returns the number of unallocated entries.
func (m *mshrFile) free() int { return m.entries - len(m.inflight) }

// pending returns the completion cycle of an in-flight miss on line, if any.
func (m *mshrFile) pending(line uint64) (int64, bool) {
	c, ok := m.inflight[line]
	return c, ok
}

// allocate reserves an entry for line completing at the given cycle.
func (m *mshrFile) allocate(line uint64, completion int64) {
	m.inflight[line] = completion
	m.releases.push(release{cycle: completion, line: line})
}

// nextRelease returns the earliest completion cycle of any in-flight
// entry, or max int64 if none.
func (m *mshrFile) nextRelease() int64 {
	if len(m.releases) == 0 {
		return int64(^uint64(0) >> 1)
	}
	return m.releases[0].cycle
}

// kthRelease returns the cycle at which at least k additional entries will
// have been freed — the earliest retry time for an instruction that needs
// k more entries than are currently free.
func (m *mshrFile) kthRelease(k int) int64 {
	if k <= 1 {
		return m.nextRelease()
	}
	if k > len(m.releases) {
		k = len(m.releases)
		if k == 0 {
			return int64(^uint64(0) >> 1)
		}
	}
	m.scratch = m.scratch[:0]
	for _, r := range m.releases {
		m.scratch = append(m.scratch, r.cycle)
	}
	slices.Sort(m.scratch)
	return m.scratch[k-1]
}
