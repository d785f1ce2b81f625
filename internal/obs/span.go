package obs

import "compstor/internal/sim"

// Ctx identifies an open span so causality can cross a mailbox or queue:
// the submitting side stores its Ctx alongside the message, the serving
// side passes it to BeginCtx. The zero Ctx means "no span".
type Ctx struct {
	id  int64
	pid int
}

// Valid reports whether the context names a span.
func (c Ctx) Valid() bool { return c.id != 0 }

// CtxOf returns the span context currently installed on p (the innermost
// open span begun on that process), or the zero Ctx.
func CtxOf(p *sim.Proc) Ctx {
	if p == nil {
		return Ctx{}
	}
	if c, ok := p.ObsCtx().(Ctx); ok {
		return c
	}
	return Ctx{}
}

// spanRec is one completed span.
type spanRec struct {
	id     int64
	parent int64
	pid    int
	tid    int
	name   string
	begin  sim.Time
	end    sim.Time
}

// instantRec is one zero-duration event.
type instantRec struct {
	pid  int
	tid  int
	name string
	at   sim.Time
	span int64 // enclosing span at the recording site, 0 if none
	args []string
}

// threadKey identifies a track within a trace process.
type threadKey struct {
	pid   int
	track string
}

// Tracer records spans and instants in virtual time. It is created off by
// default; Obs.EnableTrace flips it on. All state is engine-context only.
type Tracer struct {
	enabled  bool
	nextID   int64
	spans    []spanRec
	instants []instantRec
	order    []traceRef // creation-order interleave of spans and instants
	procs    []procName
	threads  map[threadKey]int
	thList   []thName
}

// traceRef points into spans or instants preserving creation order, which
// is deterministic under the sim kernel and therefore yields byte-identical
// exports for identical seeds.
type traceRef struct {
	instant bool
	idx     int
}

type procName struct {
	pid  int
	name string
}

type thName struct {
	pid  int
	tid  int
	name string
}

func newTracer() *Tracer {
	return &Tracer{threads: make(map[threadKey]int)}
}

func (t *Tracer) processName(pid int, name string) {
	t.procs = append(t.procs, procName{pid: pid, name: name})
}

// tid returns the thread id for track within pid, assigning ids in
// first-use order.
func (t *Tracer) tid(pid int, track string) int {
	k := threadKey{pid: pid, track: track}
	if id, ok := t.threads[k]; ok {
		return id
	}
	id := 1
	for _, th := range t.thList {
		if th.pid == pid {
			id++
		}
	}
	t.threads[k] = id
	t.thList = append(t.thList, thName{pid: pid, tid: id, name: track})
	return id
}

// Span is an open interval on a track. A nil *Span (tracing disabled, or
// End already called) is a no-op, which is also what makes
// end-without-begin harmless.
type Span struct {
	t      *Tracer
	p      *sim.Proc
	prev   any
	id     int64
	parent int64
	pid    int
	tid    int
	name   string
	begin  sim.Time
}

func (t *Tracer) begin(p *sim.Proc, parent Ctx, pid int, track, name string) *Span {
	var at sim.Time
	if p != nil {
		at = p.Now()
	}
	s := t.beginAt(at, parent, pid, track, name)
	if p != nil {
		s.p = p
		s.prev = p.ObsCtx()
		p.SetObsCtx(Ctx{id: s.id, pid: pid})
	}
	return &s
}

// beginAt opens a span no process carries.
func (t *Tracer) beginAt(at sim.Time, parent Ctx, pid int, track, name string) Span {
	t.nextID++
	return Span{
		t:      t,
		id:     t.nextID,
		parent: parent.id,
		pid:    pid,
		tid:    t.tid(pid, track),
		name:   name,
		begin:  at,
	}
}

// Ctx returns the span's context for cross-queue parenting. The zero Ctx on
// a nil span and on the zero Span.
func (s *Span) Ctx() Ctx {
	if s == nil {
		return Ctx{}
	}
	return Ctx{id: s.id, pid: s.pid}
}

// End closes the span at the process's current virtual time, restoring the
// previous span context. Safe on nil and idempotent: a second End is a
// no-op.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	end := s.begin
	if s.p != nil {
		end = s.p.Now()
		s.p.SetObsCtx(s.prev)
	}
	s.EndAt(end)
}

// EndAt closes a span opened with BeginAt. Like End it is idempotent.
func (s *Span) EndAt(end sim.Time) {
	if s.t == nil {
		return
	}
	s.t.spans = append(s.t.spans, spanRec{
		id:     s.id,
		parent: s.parent,
		pid:    s.pid,
		tid:    s.tid,
		name:   s.name,
		begin:  s.begin,
		end:    end,
	})
	s.t.order = append(s.t.order, traceRef{idx: len(s.t.spans) - 1})
	s.t = nil
}

func (t *Tracer) instant(p *sim.Proc, pid int, track, name string, args []string) {
	var at sim.Time
	if p != nil {
		at = p.Now()
	}
	t.instantAt(pid, track, name, at, CtxOf(p).id, args)
}

func (t *Tracer) instantAt(pid int, track, name string, at sim.Time, span int64, args []string) {
	t.instants = append(t.instants, instantRec{
		pid:  pid,
		tid:  t.tid(pid, track),
		name: name,
		at:   at,
		span: span,
		args: args,
	})
	t.order = append(t.order, traceRef{instant: true, idx: len(t.instants) - 1})
}
