//go:build !race

package dnswire

// raceEnabled is false outside -race builds; see race_test.go.
const raceEnabled = false
