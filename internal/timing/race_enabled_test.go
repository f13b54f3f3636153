//go:build race

package timing

// raceEnabled skips the allocation pin, which sync.Pool's random drops
// under the race detector would break.
const raceEnabled = true
