package timing

import "slices"

// mshrFile models a core's miss-status holding registers: a bounded set of
// in-flight line misses with same-line merging. Entries free when their
// fill completes.
type mshrFile struct {
	entries  int
	inflight lineTable // line -> completion cycle
	releases releaseHeap
	scratch  []int64 // kthRelease's sort buffer, reused across calls
}

// lineTable maps in-flight lines to their completion cycles: an
// open-addressed hash table with linear probing. A slot whose done is 0
// is empty; a completion is always later than the cycle that allocates
// it, so never 0. Deletion shifts the rest of the probe run back over the
// freed slot instead of leaving a tombstone, so lookups stop at the
// first empty slot. The table doubles when more than half full, which
// lets an over-divergent load oversubscribe the MSHR file.
type lineTable struct {
	slots []lineSlot // power-of-two length
	shift uint       // 64 - log2(len(slots)), for Fibonacci hashing
	n     int        // occupied slots
}

type lineSlot struct {
	line uint64
	done int64
}

// tableSize returns the smallest power-of-two slot count holding
// capacity lines at no more than half load, and its log2.
func tableSize(capacity int) (int, uint) {
	size, bits := 1, uint(0)
	for size < 2*capacity {
		size <<= 1
		bits++
	}
	return size, bits
}

// reset empties the table for capacity lines (at least 4) at half load.
// Slots that already hold that many are cleared and kept; the lookups
// find the same lines in a larger table.
func (t *lineTable) reset(capacity int) {
	size, bits := tableSize(max(capacity, 4))
	if len(t.slots) >= size {
		clear(t.slots)
	} else {
		t.slots, t.shift = make([]lineSlot, size), 64-bits
	}
	t.n = 0
}

// resize rehashes into the smallest power-of-two table holding capacity
// at no more than half load.
func (t *lineTable) resize(capacity int) {
	size, bits := tableSize(capacity)
	old := t.slots
	t.slots, t.shift, t.n = make([]lineSlot, size), 64-bits, 0
	for _, s := range old {
		if s.done != 0 {
			t.put(s.line, s.done)
		}
	}
}

// home is the slot line hashes to: the top bits of its product with
// 2^64/phi, which spreads line-aligned addresses over the table.
func (t *lineTable) home(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding line, or the empty slot that ends its
// probe run and false.
func (t *lineTable) find(line uint64) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(line); ; i = (i + 1) & mask {
		if s := t.slots[i]; s.done == 0 || s.line == line {
			return i, s.done != 0
		}
	}
}

// get returns the completion cycle of line, if present.
func (t *lineTable) get(line uint64) (int64, bool) {
	i, ok := t.find(line)
	return t.slots[i].done, ok
}

// put sets line's completion cycle (done > 0), inserting it if absent.
func (t *lineTable) put(line uint64, done int64) {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(t.n + 1)
	}
	i, ok := t.find(line)
	if !ok {
		t.n++
	}
	t.slots[i] = lineSlot{line, done}
}

// deleteIf removes line if its completion cycle is done, reporting
// whether it did.
func (t *lineTable) deleteIf(line uint64, done int64) bool {
	i, ok := t.find(line)
	if !ok || t.slots[i].done != done {
		return false
	}
	// Backward-shift deletion: move each later entry of the run into the
	// hole unless its home lies cyclically in (hole, entry].
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].done != 0; j = (j + 1) & mask {
		if k := t.home(t.slots[j].line); (j-k)&mask < (j-i)&mask {
			continue
		}
		t.slots[i] = t.slots[j]
		i = j
	}
	t.slots[i] = lineSlot{}
	t.n--
	return true
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

// reset empties the file and gives it entries MSHRs. The in-flight table
// is sized for entries lines, at most 1024: the count reaches Simulate
// unbounded, and the table doubles as lines arrive. A table from an
// earlier run that is large enough is kept.
func (m *mshrFile) reset(entries int) {
	m.entries = entries
	m.inflight.reset(min(entries, 1024))
	m.releases = m.releases[:0]
}

// purge frees entries whose fills completed at or before now, returning
// how many entries were released.
func (m *mshrFile) purge(now int64) int {
	freed := 0
	for len(m.releases) > 0 && m.releases[0].cycle <= now {
		r := m.releases.pop()
		if m.inflight.deleteIf(r.line, r.cycle) {
			freed++
		}
	}
	return freed
}

// free returns the number of unallocated entries.
func (m *mshrFile) free() int { return m.entries - m.inflight.n }

// pending returns the completion cycle of an in-flight miss on line, if any.
func (m *mshrFile) pending(line uint64) (int64, bool) {
	return m.inflight.get(line)
}

// allocate reserves an entry for line completing at the given cycle,
// which is later than the current cycle and so positive.
func (m *mshrFile) allocate(line uint64, completion int64) {
	m.inflight.put(line, completion)
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
