//go:build race

package core

// raceEnabled lets the zero-allocation assertion self-skip under the race
// detector, which makes sync.Pool drop items at random.
const raceEnabled = true
