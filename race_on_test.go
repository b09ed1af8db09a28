//go:build race

package mood_test

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// random share of what is put back: allocation budgets do not hold there.
const raceEnabled = true
