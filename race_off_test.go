//go:build !race

package mood_test

// raceEnabled reports a race-detector build; see race_on_test.go.
const raceEnabled = false
