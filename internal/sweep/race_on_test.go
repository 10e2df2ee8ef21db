//go:build race

package sweep

// raceEnabled reports whether the race detector is compiled in: its
// sync.Pool drops a share of the Puts on purpose, so the exact
// scratch-engine counts of TestRunsShareScratchEngines hold only without.
const raceEnabled = true
