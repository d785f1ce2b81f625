// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel has two layers:
//
//   - A low-level event layer: an Engine owns a virtual clock and a two-tier
//     calendar queue of timestamped callbacks (see sched.go). Events with
//     equal timestamps fire in scheduling order, so a run is fully
//     deterministic.
//   - A process layer (see Proc): coroutine-backed simulated processes in the
//     style of SimPy. Exactly one process or event callback runs at a time,
//     so model code needs no locking.
//
// On top of these the package offers the building blocks used by the
// CompStor models: counted semaphores (Semaphore), multi-server stations
// (Resource), FIFO bandwidth pipes (Link), and blocking mailboxes (Mailbox).
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp, in nanoseconds since the start of the
// simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return time.Duration(t).String() }

// MaxTime is the largest representable virtual timestamp.
const MaxTime = Time(math.MaxInt64)

// Engine is a discrete-event simulation engine. The zero value is not ready
// for use; create one with NewEngine.
type Engine struct {
	now         Time
	seq         uint64
	q           schedQ
	running     bool
	stopped     bool
	runDeadline Time
	acct        *Accounting // nil unless EnableAccounting was called

	// Worker pool backing Procs (see proc.go). Workers whose proc completed
	// return to freeW and are rebound by the next Go, so the coroutine is
	// reused instead of re-created.
	freeW   []*worker
	allW    []*worker
	killing bool // Shutdown in progress: parked procs unwind, schedules drop
	closed  bool // Shutdown finished: the engine is inert

	fastOff bool // force the queue+handoff slow path (SetDefaultFastPaths)
}

// defaultFastOff seeds new engines' fast-path setting; see
// SetDefaultFastPaths.
var defaultFastOff bool

// SetDefaultFastPaths sets whether engines created afterwards take the
// switch-free wait fast path. It is on by default; turning it off forces
// every wait through the event queue and the worker handoff, the exact
// dispatch pattern of the pre-fast-path engine. The two modes are
// byte-identical in virtual time, seq numbering, and accounting — the
// differential determinism tests assert this, and the switch exists only
// for them: they build whole testbeds (engine included) deep inside
// experiment helpers and need the slow path from construction on. Not safe
// to flip while engines run.
func SetDefaultFastPaths(enabled bool) { defaultFastOff = !enabled }

// NewEngine returns an engine with its clock at time zero and no pending
// events.
func NewEngine() *Engine {
	e := &Engine{fastOff: defaultFastOff}
	e.q.init()
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at virtual time t. Scheduling into the past
// panics: the causality violation always indicates a model bug.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, nil, fn)
}

// After schedules fn to run d after the current virtual time. Negative
// delays panic.
func (e *Engine) After(d time.Duration, fn func()) {
	e.At(e.now.Add(d), fn)
}

func (e *Engine) schedule(t Time, p *Proc, fn func()) {
	if e.killing {
		// Shutdown unwind: cleanup code may still unpark or reschedule, but
		// nothing will ever run again, so the event is dropped.
		return
	}
	if e.closed {
		panic("sim: event scheduled after Shutdown")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	e.seq++
	e.q.insert(event{at: t, seq: e.seq, p: p, fn: fn}, e.now)
}

// Step executes the single earliest pending event and reports whether one
// was executed.
func (e *Engine) Step() bool {
	if !e.q.fill(e.now) {
		return false
	}
	e.dispatchNext()
	return true
}

// dispatchNext pops and runs the next event. The queue must be non-empty
// (filled). Depth is sampled before the pop, matching the old heap engine.
func (e *Engine) dispatchNext() {
	depth := e.q.len()
	ev := e.q.popReady()
	e.now = ev.at
	if a := e.acct; a != nil {
		a.dispatched(depth)
	}
	e.exec(ev)
}

// exec runs one popped event: a plain callback, a process resumption, or a
// process's pending engine-side continuation (WaitFn).
func (e *Engine) exec(ev event) {
	if ev.p == nil {
		ev.fn()
		return
	}
	p := ev.p
	if fn := p.pendingFn; fn != nil {
		p.pendingFn = nil
		done := fn()
		switch {
		case done == e.now:
			// The continuation finished at this instant: the proc resumes
			// inside the same event, exactly where the old switch-based code
			// would have been after its Wait.
			e.stepProc(p)
		case done > e.now:
			e.schedule(done, p, nil)
		default:
			panic("sim: WaitFn continuation returned a past time")
		}
		return
	}
	e.stepProc(p)
}

// Run executes events until the queue drains or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time {
	return e.RunUntil(MaxTime)
}

// RunUntil executes events with timestamps <= deadline, or until the queue
// drains or Stop is called. The clock is left at the timestamp of the last
// executed event (it does not jump to the deadline).
func (e *Engine) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: Engine.Run called re-entrantly")
	}
	if e.closed {
		panic("sim: Run after Shutdown")
	}
	e.running = true
	e.stopped = false
	e.runDeadline = deadline
	defer func() { e.running = false }()
	for !e.stopped {
		t, ok := e.q.nextTime(e.now)
		if !ok || t > deadline {
			break
		}
		e.dispatchNext()
	}
	return e.now
}

// canInline reports whether a process delay ending at t can complete without
// touching the event queue: the engine must be inside Run with the deadline
// covering t, no stop requested, the proc must carry no tracing context (an
// open span pins the old dispatch pattern), and no pending event may fire at
// or before t. Under those conditions advancing the clock directly is
// indistinguishable from scheduling a wake-up event and dispatching it next.
func (e *Engine) canInline(p *Proc, t Time) bool {
	if e.fastOff || !e.running || e.stopped || t > e.runDeadline || p.obsCtx != nil {
		return false
	}
	min, ok := e.q.minTime(e.now)
	return !ok || min > t
}

// inlineAdvance completes a wait as an engine-side fast path: the wake-up
// event's seq is still consumed and the event still counts in accounting
// (depth as if it were queued), so sim_events and every subsequent seq are
// byte-identical to the non-inline execution — only the two coroutine
// switches disappear.
func (e *Engine) inlineAdvance(p *Proc, t Time) {
	e.seq++
	depth := e.q.len() + 1
	e.now = t
	if a := e.acct; a != nil {
		a.dispatched(depth)
		a.inlineWaits++
	}
}

// Prewarm adds n idle workers to the proc pool, so the first n
// concurrently live procs start without creating a coroutine mid-run. This
// is purely host-side: no event is scheduled and no seq or accounting state
// is touched, so a prewarmed engine dispatches byte-identically to a cold
// one (procs running on a prewarmed worker do count as reused). Call it
// after construction, before any measured window opens; the workers are
// released by Shutdown like every other.
func (e *Engine) Prewarm(n int) {
	if e.closed || e.killing {
		panic("sim: Prewarm after Shutdown")
	}
	for i := 0; i < n; i++ {
		e.freeW = append(e.freeW, newWorker(e))
	}
}

// Stop makes the innermost Run/RunUntil return after the current event
// completes. Pending events stay queued.
func (e *Engine) Stop() { e.stopped = true }

// Shutdown force-terminates every simulated process and releases the pooled
// worker coroutines. Parked procs unwind via a panic that runs their defers;
// events scheduled during the unwind are dropped. It must not be called
// while Run is active; afterwards the engine is inert (Go, Run, and
// scheduling panic). Idempotent.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown during Run")
	}
	if e.closed {
		return
	}
	e.killing = true
	for _, w := range e.allW {
		w.stop()
	}
	e.allW, e.freeW = nil, nil
	e.killing = false
	e.closed = true
}

// DurationFor returns the time needed to move n bytes at bytesPerSec,
// rounded up to a whole nanosecond so that repeated transfers never take
// zero time.
func DurationFor(n int64, bytesPerSec float64) time.Duration {
	if n <= 0 {
		return 0
	}
	if bytesPerSec <= 0 {
		panic("sim: non-positive bandwidth")
	}
	ns := float64(n) / bytesPerSec * 1e9
	d := time.Duration(math.Ceil(ns))
	if d <= 0 {
		d = 1
	}
	return d
}
