package sim

import (
	"runtime"
	"slices"
	"strings"
	"time"
)

// Accounting collects scheduler statistics for an Engine: events dispatched
// (total and per source label), process switches, starts and pool reuses,
// inline-completed waits, the deepest event queue seen, and —
// optionally — the wall-clock side (wall nanoseconds per label, allocation
// and goroutine deltas from the Go runtime, and virtual time advanced per
// wall second).
//
// The sim-side counters are pure functions of the event sequence, so with a
// fixed seed they are byte-identically reproducible; everything reachable
// from WallStats and the WallNS fields is host-dependent and must never be
// written into artefacts that are diffed byte-for-byte (see package obs).
// Inline waits consume a seq and count as dispatched events (see
// Engine.inlineAdvance), so Events is invariant under the fast path and
// stays comparable across engine versions.
//
// Accounting is engine-context only, like everything else in this package.
// With accounting disabled the engine pays one nil check per dispatched
// event; BenchmarkEngineAccounting tracks the enabled overhead.
type Accounting struct {
	eng      *Engine
	simStart Time

	events       int64
	byID         []labelStats // indexed by interned label id
	procsStarted int64
	procsReused  int64
	procSwitches int64
	inlineWaits  int64
	maxDepth     int

	wall           bool
	wallStart      time.Time
	memStart       runtime.MemStats
	peakGoroutines int
}

type labelStats struct {
	events int64
	wallNS int64
}

// AccountingConfig tunes EnableAccounting.
type AccountingConfig struct {
	// Wall additionally captures wall-clock per label, allocation deltas
	// (runtime.MemStats), and a sampled goroutine peak. Wall capture is
	// host-dependent: never compare its numbers byte-for-byte.
	Wall bool
}

// goroutineSampleMask samples runtime.NumGoroutine every 8192 events when
// wall capture is on.
const goroutineSampleMask = 8192 - 1

// EnableAccounting attaches a fresh Accounting to the engine and returns
// it. Counters start at zero from the current virtual time; enabling twice
// replaces the previous accounting.
func (e *Engine) EnableAccounting(cfg AccountingConfig) *Accounting {
	a := &Accounting{
		eng:      e,
		simStart: e.now,
		byID:     make([]labelStats, len(e.labels)),
		wall:     cfg.Wall,
	}
	if a.wall {
		a.wallStart = time.Now()
		runtime.ReadMemStats(&a.memStart)
		a.peakGoroutines = runtime.NumGoroutine()
	}
	e.acct = a
	return a
}

// Accounting returns the engine's accounting, nil when disabled.
func (e *Engine) Accounting() *Accounting { return e.acct }

// grow extends byID to cover label id.
func (a *Accounting) grow(id int) {
	for id >= len(a.byID) {
		a.byID = append(a.byID, labelStats{})
	}
}

// dispatch records one event execution and runs it, timing the callback
// when wall capture is on.
func (a *Accounting) dispatch(ev event, depth int) {
	a.events++
	id := int(ev.lbl)
	if id >= len(a.byID) {
		a.grow(id)
	}
	a.byID[id].events++
	if depth > a.maxDepth {
		a.maxDepth = depth
	}
	if !a.wall {
		a.eng.exec(ev)
		return
	}
	if a.events&goroutineSampleMask == 0 {
		if g := runtime.NumGoroutine(); g > a.peakGoroutines {
			a.peakGoroutines = g
		}
	}
	t0 := time.Now()
	a.eng.exec(ev)
	// Re-index: nested inline events may have grown byID during exec.
	a.byID[id].wallNS += time.Since(t0).Nanoseconds()
}

// inlineEvent records a wait completed on the engine-side fast path. The
// sim-deterministic counters advance exactly as if the wake-up event had
// been queued and dispatched; only the wall timing attribution differs (the
// proc's own frame keeps running, so there is no callback to time).
func (a *Accounting) inlineEvent(lbl uint32, depth int) {
	a.events++
	a.inlineWaits++
	id := int(lbl)
	if id >= len(a.byID) {
		a.grow(id)
	}
	a.byID[id].events++
	if depth > a.maxDepth {
		a.maxDepth = depth
	}
	if a.wall && a.events&goroutineSampleMask == 0 {
		if g := runtime.NumGoroutine(); g > a.peakGoroutines {
			a.peakGoroutines = g
		}
	}
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

// SimElapsed returns the virtual time advanced since enable.
func (a *Accounting) SimElapsed() Duration {
	if a == nil {
		return 0
	}
	return a.eng.now.Sub(a.simStart)
}

// LabelCount is one event-source label's share of the dispatch work. WallNS
// is zero unless wall capture is enabled.
type LabelCount struct {
	Label  string
	Events int64
	WallNS int64
}

// ByLabel returns per-label dispatch counts sorted by label name (a
// deterministic order). Unlabeled events report as "callback"; a literal
// "callback" label merges with them, as it did when labels were strings.
func (a *Accounting) ByLabel() []LabelCount {
	if a == nil {
		return nil
	}
	out := make([]LabelCount, 0, len(a.byID))
	for id, ls := range a.byID {
		if ls.events == 0 && ls.wallNS == 0 {
			continue
		}
		name := a.eng.labelName(uint32(id))
		merged := false
		for i := range out {
			if out[i].Label == name {
				out[i].Events += ls.events
				out[i].WallNS += ls.wallNS
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, LabelCount{Label: name, Events: ls.events, WallNS: ls.wallNS})
		}
	}
	slices.SortFunc(out, func(x, y LabelCount) int { return strings.Compare(x.Label, y.Label) })
	return out
}

// WallStats is the host-side view of a run: wall clock, allocation deltas,
// and goroutine counts. Everything here is machine-dependent.
type WallStats struct {
	WallNS         int64  // wall nanoseconds since enable
	SimNS          int64  // virtual nanoseconds advanced since enable
	Events         int64  // events dispatched since enable
	Mallocs        uint64 // heap allocations since enable (MemStats.Mallocs delta)
	AllocBytes     uint64 // bytes allocated since enable (MemStats.TotalAlloc delta)
	Goroutines     int    // goroutine count at capture
	PeakGoroutines int    // sampled peak since enable
}

// WallStats captures the host-side deltas now. Zero value unless the
// accounting was enabled with Wall.
func (a *Accounting) WallStats() WallStats {
	if a == nil || !a.wall {
		return WallStats{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g := runtime.NumGoroutine()
	if g > a.peakGoroutines {
		a.peakGoroutines = g
	}
	return WallStats{
		WallNS:         time.Since(a.wallStart).Nanoseconds(),
		SimNS:          int64(a.SimElapsed()),
		Events:         a.events,
		Mallocs:        ms.Mallocs - a.memStart.Mallocs,
		AllocBytes:     ms.TotalAlloc - a.memStart.TotalAlloc,
		Goroutines:     g,
		PeakGoroutines: a.peakGoroutines,
	}
}

// accountLabel normalises a process name into a low-cardinality label by
// dropping digits: "cal7" and "cal12" both account as "cal". An all-digit
// name becomes "proc".
func accountLabel(name string) string {
	if !strings.ContainsAny(name, "0123456789") {
		return name
	}
	var b strings.Builder
	b.Grow(len(name))
	for _, r := range name {
		if r < '0' || r > '9' {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "proc"
	}
	return b.String()
}
