package obs

import "compstor/internal/sim"

// Ctx identifies an open span so causality can cross a mailbox or queue:
// the submitting side stores its Ctx alongside the message, the serving
// side passes it to BeginAt. The zero Ctx means "no span".
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

// record is one trace event: a completed span, or an instant (id 0) at
// begin. parent is the enclosing span: a span's parent, or the span open on
// the recording process when the instant was recorded. args are an
// instant's alternating key, value detail strings.
type record struct {
	id     int64
	parent int64
	pid    int
	tid    int
	name   string
	begin  sim.Time
	end    sim.Time
	args   []string
}

// threadKey identifies a track within a trace process.
type threadKey struct {
	pid   int
	track string
}

// tracer records spans and instants in virtual time. It is created off by
// default; Obs.EnableTrace flips it on. All state is engine-context only.
// recs is in creation order, which is deterministic under the sim kernel
// and therefore yields byte-identical exports for identical seeds. Every
// root that shares the tracer draws its scopes' pids from nextPid, so one
// trace file can cover many roots.
type tracer struct {
	enabled bool
	nextID  int64
	nextPid int
	recs    []record
	procs   []procName
	threads map[threadKey]int
	thList  []thName
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

// tid returns the thread id for track within pid, assigning ids in
// first-use order.
func (t *tracer) tid(pid int, track string) int {
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

// Span is an open interval on a track: the record End appends, with its
// end still to set. A nil *Span (tracing disabled, or End already called)
// is a no-op, which is also what makes end-without-begin harmless.
type Span struct {
	t    *tracer
	p    *sim.Proc
	prev any
	rec  record
}

// beginAt opens a span; Obs.Begin hands it to a process to carry.
func (t *tracer) beginAt(at sim.Time, parent Ctx, pid int, track, name string) Span {
	t.nextID++
	return Span{t: t, rec: record{
		id:     t.nextID,
		parent: parent.id,
		pid:    pid,
		tid:    t.tid(pid, track),
		name:   name,
		begin:  at,
	}}
}

// Ctx returns the span's context for cross-queue parenting. The zero Ctx on
// a nil span and on the zero Span.
func (s *Span) Ctx() Ctx {
	if s == nil {
		return Ctx{}
	}
	return Ctx{id: s.rec.id, pid: s.rec.pid}
}

// End closes the span at the process's current virtual time, restoring the
// previous span context. Safe on nil and idempotent: a second End is a
// no-op.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	end := s.rec.begin
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
	s.rec.end = end
	s.t.recs = append(s.t.recs, s.rec)
	s.t = nil
}

func (t *tracer) instantAt(pid int, track, name string, at sim.Time, parent int64, args []string) {
	t.recs = append(t.recs, record{
		parent: parent,
		pid:    pid,
		tid:    t.tid(pid, track),
		name:   name,
		begin:  at,
		args:   args,
	})
}
