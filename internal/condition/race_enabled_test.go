//go:build race

package condition

// raceEnabled reports that the race detector is active; allocation-exact
// tests skip, since instrumentation allocates nondeterministically.
const raceEnabled = true
