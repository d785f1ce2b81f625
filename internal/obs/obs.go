// Package obs is the sim-time observability layer: a metrics registry
// (counters and log-scaled latency histograms), a span tracer that
// exports Chrome trace-event JSON loadable in Perfetto, and windowed
// utilisation timelines for links and resources. Everything is driven off
// virtual time, so with a fixed seed two runs produce byte-identical
// snapshots and traces.
//
// # Thread safety: the single-goroutine sim invariant
//
// This is the canonical statement of the invariant every Stats()/Snapshot()
// reader relies on: the sim kernel runs exactly one process or event
// callback at a time (see package sim), and all model state — including
// every metric, span, and timeline in this package — is mutated only from
// engine context. Nothing here takes a lock, and none is needed: to read a
// consistent snapshot mid-run, schedule the read as an engine event
// (eng.At(t, func() { snap = o.Snapshot(...) })) instead of reading from a
// foreign goroutine. flash.Device.Stats, ftl.FTL.Stats, and Obs.Snapshot
// are all safe under the race detector when used this way.
//
// # Naming
//
// Metrics are registered by hierarchical dot-separated name. Components use
// names relative to their scope ("ftl.gc_pause", "flash.ch3.read"); Scope
// prepends a prefix per device or experiment point, yielding full names
// like "fig7.n4.compstor0.ftl.gc_pause". Each scope also owns a Chrome
// trace "process" (pid) so Perfetto groups one device's tracks together.
//
// All entry points are nil-safe: calling any method on a nil *Obs (or on
// the nil metric handles it returns) is a cheap no-op, so instrumented
// model code pays only a pointer test when observability is off.
package obs

import (
	"io"
	"time"

	"compstor/internal/sim"
)

// Obs bundles a metrics registry, a span tracer, and timelines under
// a hierarchical name prefix. The zero value is not useful; create a root
// with New and derive per-component handles with Scope. A nil *Obs disables
// everything.
type Obs struct {
	shared *shared
	prefix string // "" at the root, else "fig7.n4." style with trailing dot
	pid    int    // Chrome trace process id for this scope
}

// shared is the state common to a root Obs and every scope derived from it.
// The four instrument maps are keyed by full (prefixed) name.
type shared struct {
	counters  map[string]*Counter
	hists     map[string]*Histogram
	funcs     map[string]func() int64
	timelines map[string]*Timeline
	tracer    *tracer
}

// New creates a root Obs with metrics and timelines enabled and span
// tracing off (enable it with EnableTrace). The root scope's trace process
// is named "host".
func New() *Obs {
	t := &tracer{threads: make(map[threadKey]int), nextPid: 2, procs: []procName{{pid: 1, name: "host"}}}
	return (&Obs{shared: &shared{tracer: t}}).Fresh()
}

// Fresh creates a root with instruments of its own that records into o's
// tracer: a run of many experiments gives each its own metrics, freed with
// it, and still writes one trace covering all of them.
func (o *Obs) Fresh() *Obs {
	if o == nil {
		return nil
	}
	return &Obs{pid: 1, shared: &shared{
		counters:  make(map[string]*Counter),
		hists:     make(map[string]*Histogram),
		funcs:     make(map[string]func() int64),
		timelines: make(map[string]*Timeline),
		tracer:    o.shared.tracer,
	}}
}

// EnableTrace turns on span and instant recording. Before this is called
// (and always on a nil Obs) Begin/Instant are no-ops.
func (o *Obs) EnableTrace() {
	if o == nil {
		return
	}
	o.shared.tracer.enabled = true
}

// Scope derives a child handle whose metric names gain the prefix
// "name." and whose spans render under a fresh Chrome trace process named
// after the full prefix. Metrics, tracer, and timelines stay shared, so a
// root snapshot sees every scope's data.
func (o *Obs) Scope(name string) *Obs {
	if o == nil {
		return nil
	}
	t := o.shared.tracer
	c := &Obs{shared: o.shared, prefix: o.prefix + name + ".", pid: t.nextPid}
	t.nextPid++
	t.procs = append(t.procs, procName{pid: c.pid, name: c.prefix[:len(c.prefix)-1]})
	return c
}

// Counter returns the counter registered under the scope's prefix + name,
// creating it on first use. Nil-safe: a nil Obs returns a nil handle whose
// methods no-op.
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	c := o.shared.counters[o.prefix+name]
	if c == nil {
		c = &Counter{}
		o.shared.counters[o.prefix+name] = c
	}
	return c
}

// Histogram returns the sim-time histogram registered under the scope's
// prefix + name.
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	h := o.shared.hists[o.prefix+name]
	if h == nil {
		h = &Histogram{}
		o.shared.hists[o.prefix+name] = h
	}
	return h
}

// CounterFunc registers a counter whose value is pulled from fn at snapshot
// time. This is how existing per-layer Stats structs surface uniformly
// without double bookkeeping.
func (o *Obs) CounterFunc(name string, fn func() int64) {
	if o == nil {
		return
	}
	o.shared.funcs[o.prefix+name] = fn
}

// Timeline returns the utilisation timeline registered under the scope's
// prefix + name, creating it with the given window width and capacity
// divisor on first use.
func (o *Obs) Timeline(name string, window sim.Duration, capacity int) *Timeline {
	if o == nil {
		return nil
	}
	tl := o.shared.timelines[o.prefix+name]
	if tl == nil {
		tl = &Timeline{window: window, capacity: capacity}
		o.shared.timelines[o.prefix+name] = tl
	}
	return tl
}

// watchWindow is the initial window width of a watched link or resource.
const watchWindow = time.Millisecond

// WatchLink attaches a utilisation timeline to a link's busy hook.
func (o *Obs) WatchLink(name string, l *sim.Link) {
	tl := o.Timeline(name, watchWindow, 1)
	if tl == nil {
		return
	}
	l.SetBusyHook(tl.Add)
}

// WatchResource attaches a utilisation timeline to a resource's busy hook,
// normalising by its server count.
func (o *Obs) WatchResource(name string, r *sim.Resource) {
	tl := o.Timeline(name, watchWindow, r.Capacity())
	if tl == nil {
		return
	}
	r.SetBusyHook(tl.Add)
}

// Begin opens a span on track within this scope's trace process, parented
// to the process's current span (if any), and makes the new span p's
// current context until End. Returns nil (a no-op span) when tracing is
// off.
func (o *Obs) Begin(p *sim.Proc, track, name string) *Span {
	if o == nil || !o.shared.tracer.enabled {
		return nil
	}
	s := o.shared.tracer.beginAt(0, CtxOf(p), o.pid, track, name)
	if p != nil {
		s.rec.begin, s.p, s.prev = p.Now(), p, p.ObsCtx()
		p.SetObsCtx(s.Ctx())
	}
	return &s
}

// Timing is a span opened by Time and the histogram its duration goes to;
// a deferred End closes both. The zero Timing, from a nil Obs, does nothing.
type Timing struct {
	p     *sim.Proc
	start sim.Time
	sp    *Span
	h     *Histogram
}

// Time opens a span as Begin does and starts timing it for h.
func (o *Obs) Time(p *sim.Proc, track, name string, h *Histogram) Timing {
	if o == nil {
		return Timing{}
	}
	return Timing{p, p.Now(), o.Begin(p, track, name), h}
}

// End closes the span and observes its duration into the histogram.
func (t Timing) End() {
	if t.p != nil {
		t.h.Observe(t.p.Now().Sub(t.start))
		t.sp.End()
	}
}

// BeginAt opens a span at an explicit instant under an explicit parent, for
// engine-context code with no process to carry the context. The span comes
// back by value, to live in a pooled operation; close it with EndAt. With
// tracing off it is the zero Span: EndAt does nothing, Ctx is not Valid.
func (o *Obs) BeginAt(at sim.Time, parent Ctx, track, name string) Span {
	if o == nil || !o.shared.tracer.enabled {
		return Span{}
	}
	return o.shared.tracer.beginAt(at, parent, o.pid, track, name)
}

// Instant records a zero-duration trace event (a chaos fault, a retry, a
// failover decision) on track, associated with the process's current span.
// args are alternating key, value detail strings.
func (o *Obs) Instant(p *sim.Proc, track, name string, args ...string) {
	if o == nil || !o.shared.tracer.enabled {
		return
	}
	var at sim.Time
	if p != nil {
		at = p.Now()
	}
	o.shared.tracer.instantAt(o.pid, track, name, at, CtxOf(p).id, args)
}

// InstantAt records a zero-duration trace event at an explicit virtual
// time, for sites with no process handle (engine callbacks, media fault
// hooks). The event is not associated with any span.
func (o *Obs) InstantAt(t sim.Time, track, name string, args ...string) {
	if o == nil || !o.shared.tracer.enabled {
		return
	}
	o.shared.tracer.instantAt(o.pid, track, name, t, 0, args)
}

// WriteTrace writes the whole shared trace (every scope of every root
// sharing the tracer) as Chrome trace-event JSON. Safe on a nil Obs and on
// an empty run: both produce a valid, empty trace.
func (o *Obs) WriteTrace(w io.Writer) error {
	if o == nil {
		return writeChromeTrace(w, nil)
	}
	return writeChromeTrace(w, o.shared.tracer)
}
