//go:build race

package emu_test

// raceEnabled trims the heavy differential sweeps when the race detector
// multiplies their cost; full-scale runs belong to the non-race job.
const raceEnabled = true
