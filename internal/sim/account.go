package sim

import (
	"runtime"
	"time"
)

// Accounting collects scheduler totals for an Engine: events dispatched,
// process starts and switches, inline-completed waits, the deepest event
// queue seen, and — optionally — the wall clock and heap allocations between
// enable and readout.
//
// The sim-side counters are pure functions of the event sequence, so with a
// fixed seed they are byte-identically reproducible; WallStats is
// host-dependent and must never be written into artefacts that are diffed
// byte-for-byte (see package obs). Inline waits consume a seq and count as
// dispatched events (see Engine.inlineAdvance), so Events is invariant under
// the fast path and stays comparable across engine versions.
//
// Accounting is engine-context only, like everything else in this package.
// With accounting disabled the engine pays one nil check per dispatched
// event; enabled, a counter increment and a depth compare.
// BenchmarkEngineAccounting tracks both.
type Accounting struct {
	events       int64
	procsStarted int64
	procSwitches int64
	inlineWaits  int64
	maxDepth     int

	wall      bool
	wallStart time.Time
	memStart  runtime.MemStats
}

// AccountingConfig tunes EnableAccounting.
type AccountingConfig struct {
	// Wall additionally reads the wall clock and runtime.MemStats once at
	// enable, for WallStats to difference at readout. Nothing is timed per
	// event. Wall capture is host-dependent: never compare its numbers
	// byte-for-byte.
	Wall bool
}

// EnableAccounting attaches a fresh Accounting to the engine and returns
// it. Counters start at zero; enabling twice replaces the previous
// accounting.
func (e *Engine) EnableAccounting(cfg AccountingConfig) *Accounting {
	a := &Accounting{wall: cfg.Wall}
	if a.wall {
		a.wallStart = time.Now()
		runtime.ReadMemStats(&a.memStart)
	}
	e.acct = a
	return a
}

// dispatched records one dispatched event (queued or inline) seen at the
// given queue depth.
func (a *Accounting) dispatched(depth int) {
	a.events++
	a.maxDepth = max(a.maxDepth, depth)
}

// Events returns the number of events dispatched since enable (inline
// fast-path waits included).
func (a *Accounting) Events() int64 {
	if a == nil {
		return 0
	}
	return a.events
}

// ProcsStarted returns the number of processes created since enable.
func (a *Accounting) ProcsStarted() int64 {
	if a == nil {
		return 0
	}
	return a.procsStarted
}

// ProcSwitches returns the number of engine→process coroutine switches
// since enable (each Proc resumption is one). Inline waits do not switch.
func (a *Accounting) ProcSwitches() int64 {
	if a == nil {
		return 0
	}
	return a.procSwitches
}

// InlineWaits returns the number of waits completed on the engine-side fast
// path (no queue insertion, no coroutine switch).
func (a *Accounting) InlineWaits() int64 {
	if a == nil {
		return 0
	}
	return a.inlineWaits
}

// MaxHeapDepth returns the deepest event queue observed at any dispatch.
func (a *Accounting) MaxHeapDepth() int {
	if a == nil {
		return 0
	}
	return a.maxDepth
}

// WallStats is the host-side view of a run. Everything here is
// machine-dependent.
type WallStats struct {
	WallNS  int64  // wall nanoseconds since enable
	Mallocs uint64 // heap allocations since enable (MemStats.Mallocs delta)
}

// WallStats captures the host-side deltas now. Zero value unless the
// accounting was enabled with Wall.
func (a *Accounting) WallStats() WallStats {
	if a == nil || !a.wall {
		return WallStats{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return WallStats{
		WallNS:  time.Since(a.wallStart).Nanoseconds(),
		Mallocs: ms.Mallocs - a.memStart.Mallocs,
	}
}
