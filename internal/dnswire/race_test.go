//go:build race

package dnswire

// raceEnabled is true in -race builds. The race detector drops sync.Pool
// items at random on purpose, so the compressor pool misses and
// allocation counts are not the ones a normal build has.
const raceEnabled = true
