//go:build race

package server

// raceEnabled reports whether the race detector is compiled in: its
// sync.Pool drops a share of the Puts on purpose, so the pooled encoder's
// allocation bound of TestWriteJSONReusesBuffers holds only without.
const raceEnabled = true
