//go:build race

package appset

// raceEnabled reports a race-detector build, in which sync.Pool drops a
// random quarter of what it is handed: allocation gates over pooled buffers
// do not hold there.
const raceEnabled = true
