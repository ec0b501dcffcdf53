//go:build race

package node

// raceEnabled reports that the race detector is active; allocation-exact
// tests skip, since instrumentation allocates nondeterministically.
const raceEnabled = true
