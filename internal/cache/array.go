// Package cache implements the functional cache simulator of GPUMech's
// input collector (Section V of the paper): set-associative LRU tag arrays
// for the per-core L1s and the shared L2, driven by the kernel trace with
// warps interleaved in round-robin order, producing per-PC miss-event
// distributions, per-PC average memory access times (AMAT), and the
// average miss latency the contention model needs.
package cache

import (
	"fmt"
	"math/bits"
)

// Array is a set-associative, LRU, tag-only cache array. It models hits
// and misses but stores no data.
//
// Each way holds its line number (the address shifted by the line size)
// and an LRU stamp. Access and Touch advance the clock before stamping,
// so a filled way's stamp is never 0 and a stamp of 0 marks an empty
// way. No line number is reserved as an empty marker: with 1-byte lines
// every 64-bit value is a line, up to address 2^64-1. A lookup compares
// line numbers first and reads the stamp only on a match.
type Array struct {
	sets     int
	assoc    int
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets*assoc entries
	stamp    []uint64 // LRU timestamps, 0 for an empty way
	clock    uint64
}

// NewArray builds a cache array. sizeBytes must be divisible by
// lineBytes*assoc and lineBytes must be a power of two.
func NewArray(sizeBytes, lineBytes, assoc int) (*Array, error) {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d is not a power of two", lineBytes)
	}
	if assoc <= 0 || sizeBytes <= 0 || sizeBytes%(lineBytes*assoc) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by line*assoc (%d*%d)", sizeBytes, lineBytes, assoc)
	}
	sets := sizeBytes / (lineBytes * assoc)
	a := &Array{
		sets:     sets,
		assoc:    assoc,
		lineBits: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*assoc),
		stamp:    make([]uint64, sets*assoc),
	}
	if sets&(sets-1) != 0 {
		// Non-power-of-two set counts use modulo indexing.
		a.setMask = 0
	}
	return a, nil
}

func (a *Array) setOf(addr uint64) int {
	idx := addr >> a.lineBits
	if a.setMask != 0 {
		return int(idx & a.setMask)
	}
	return int(idx % uint64(a.sets))
}

// Access looks up the line containing addr, allocating it on a miss
// (LRU victim) and refreshing LRU state on a hit. It returns true on hit.
func (a *Array) Access(addr uint64) bool { return a.access(addr, true) }

// Probe looks up the line without changing any state.
func (a *Array) Probe(addr uint64) bool {
	base := a.setOf(addr) * a.assoc
	tag := addr >> a.lineBits
	stamps := a.stamp[base : base+a.assoc]
	for w, t := range a.tags[base : base+a.assoc] {
		if t == tag && stamps[w] != 0 {
			return true
		}
	}
	return false
}

// Touch refreshes LRU state for the line if present without allocating.
// It models write-through no-allocate stores. It returns true on hit.
func (a *Array) Touch(addr uint64) bool { return a.access(addr, false) }

func (a *Array) access(addr uint64, allocate bool) bool {
	base := a.setOf(addr) * a.assoc
	tag := addr >> a.lineBits
	tags, stamps := a.tags[base:base+a.assoc], a.stamp[base:base+a.assoc]
	a.clock++
	// The victim is the last empty way, else the least recently used one;
	// stamps of filled ways are distinct.
	lruWay, lruStamp := 0, ^uint64(0)
	for w, t := range tags {
		st := stamps[w]
		if t == tag && st != 0 {
			stamps[w] = a.clock
			return true
		}
		if st <= lruStamp {
			lruWay, lruStamp = w, st
		}
	}
	if allocate {
		tags[lruWay] = tag
		stamps[lruWay] = a.clock
	}
	return false
}

// Reset invalidates every line.
func (a *Array) Reset() {
	clear(a.stamp)
	a.clock = 0
}
