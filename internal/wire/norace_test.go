//go:build !race

package wire

// raceEnabled reports whether the test binary runs under the race detector,
// whose sync.Pool drops pooled items at random.
const raceEnabled = false
