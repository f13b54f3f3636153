package timing

import (
	"math/rand"
	"testing"
)

// TestMSHRMatchesMap drives an mshrFile and a Go map with the same random
// allocate, pending and purge sequences, as loadLine and stepCore issue
// them: a line is allocated only when not already in flight, and time
// moves forward between purges. Allocations are not capped at the entry
// count, as an over-divergent load oversubscribes the file, so the line
// table must grow; small tables over few distinct lines make long probe
// runs, so most purges exercise backward-shift deletion.
func TestMSHRMatchesMap(t *testing.T) {
	grew := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		entries := 1 + rng.Intn(8)
		m := newMSHRFile(entries)
		startSlots := len(m.inflight.slots)
		ref := make(map[uint64]int64)
		var refReleases []release

		pool := make([]uint64, 4+rng.Intn(60))
		for i := range pool {
			pool[i] = uint64(rng.Intn(1<<12)) * 128
		}
		pool = append(pool, 0, ^uint64(0)&^127)

		var now int64
		peak := 0
		for step := 0; step < 3000; step++ {
			line := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(10); {
			case op < 5:
				if _, ok := ref[line]; ok {
					break
				}
				done := now + 1 + rng.Int63n(40)
				m.allocate(line, done)
				ref[line] = done
				refReleases = append(refReleases, release{cycle: done, line: line})
			case op < 7:
				now += rng.Int63n(12)
				want := 0
				keep := refReleases[:0]
				for _, r := range refReleases {
					if r.cycle > now {
						keep = append(keep, r)
					} else if ref[r.line] == r.cycle {
						delete(ref, r.line)
						want++
					}
				}
				refReleases = keep
				if got := m.purge(now); got != want {
					t.Fatalf("seed %d step %d: purge(%d) freed %d, want %d", seed, step, now, got, want)
				}
			default:
				c, ok := m.pending(line)
				wc, wok := ref[line]
				if ok != wok || c != wc {
					t.Fatalf("seed %d step %d: pending(%#x) = %d, %v; want %d, %v", seed, step, line, c, ok, wc, wok)
				}
			}
			if got, want := m.free(), entries-len(ref); got != want {
				t.Fatalf("seed %d step %d: free() = %d, want %d", seed, step, got, want)
			}
			peak = max(peak, len(ref))
		}
		for line, want := range ref {
			if c, ok := m.pending(line); !ok || c != want {
				t.Fatalf("seed %d: line %#x pending = %d, %v; want %d", seed, line, c, ok, want)
			}
		}
		if 2*peak > startSlots && len(m.inflight.slots) == startSlots {
			t.Fatalf("seed %d: %d lines in flight in %d slots, but the table never grew", seed, peak, startSlots)
		}
		if len(m.inflight.slots) > startSlots {
			grew++
		}
	}
	if grew == 0 {
		t.Fatal("no seed oversubscribed the file far enough to grow its table")
	}
}

// TestLineTableBackwardShift removes the head of a probe run that wraps
// past the end of the table and holds a displaced line of another home:
// every remaining line must still be found, and the run must close up.
func TestLineTableBackwardShift(t *testing.T) {
	tb := newLineTable(4) // 8 slots
	last := len(tb.slots) - 1
	// Three lines homed at the last slot, and one homed at slot 0 that
	// the wrapped run displaces to slot 2.
	var atLast, atZero []uint64
	for ln := uint64(0); len(atLast) < 3 || len(atZero) < 1; ln += 128 {
		switch tb.home(ln) {
		case last:
			atLast = append(atLast, ln)
		case 0:
			atZero = append(atZero, ln)
		}
	}
	lines := append(atLast[:3:3], atZero[0])
	for i, ln := range lines {
		tb.put(ln, int64(i+1))
	}
	if tb.slots[2].line != atZero[0] {
		t.Fatalf("setup: slot 2 holds %#x, want the displaced line %#x", tb.slots[2].line, atZero[0])
	}
	if !tb.deleteIf(lines[0], 1) {
		t.Fatal("deleteIf missed the head of the run")
	}
	for i, ln := range lines[1:] {
		if c, ok := tb.get(ln); !ok || c != int64(i+2) {
			t.Fatalf("line %#x lost after delete: %d, %v", ln, c, ok)
		}
	}
	if tb.n != 3 || tb.slots[2].done != 0 {
		t.Fatalf("run did not close up: n = %d, slot 2 = %+v", tb.n, tb.slots[2])
	}
	// A stale completion cycle deletes nothing.
	if tb.deleteIf(lines[1], 99) {
		t.Fatal("deleteIf removed a line whose completion cycle differs")
	}
}
