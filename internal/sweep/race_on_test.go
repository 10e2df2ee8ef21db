//go:build race

package sweep

// raceEnabled reports whether the race detector is compiled in: its
// bookkeeping perturbs allocation counts, so exact AllocsPerRun checks
// skip under -race.
const raceEnabled = true
