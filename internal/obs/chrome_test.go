package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"compstor/internal/sim"
)

// chromeEvent and chromeTrace are the trace document as encoding/json writes
// it, the oracle for chromeWriter's hand-appended events.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   *int64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// oracleChromeTrace builds the whole trace in memory and encodes it at once.
func oracleChromeTrace(t *tracer) []byte {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		for _, pr := range t.procs {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pr.pid,
				Args: map[string]any{"name": pr.name},
			})
		}
		for _, th := range t.thList {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: th.pid, Tid: th.tid,
				Args: map[string]any{"name": th.name},
			})
		}
		byID := make(map[int64]*record)
		for i := range t.recs {
			r := &t.recs[i]
			if r.id == 0 {
				args := map[string]any{}
				for j := 0; j+1 < len(r.args); j += 2 {
					args[r.args[j]] = r.args[j+1]
				}
				if r.parent != 0 {
					args["span"] = r.parent
				}
				if len(args) == 0 {
					args = nil
				}
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: r.name, Ph: "i", Ts: usec(int64(r.begin)),
					Pid: r.pid, Tid: r.tid, S: "t", Args: args,
				})
				continue
			}
			byID[r.id] = r
			dur := usec(int64(r.end) - int64(r.begin))
			args := map[string]any{"id": r.id}
			if r.parent != 0 {
				args["parent"] = r.parent
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: r.name, Ph: "X", Ts: usec(int64(r.begin)), Dur: &dur,
				Pid: r.pid, Tid: r.tid, Args: args,
			})
		}
		for i := range t.recs {
			sp := &t.recs[i]
			if sp.id == 0 {
				continue
			}
			par, ok := byID[sp.parent]
			if sp.parent == 0 || !ok || (par.pid == sp.pid && par.tid == sp.tid) {
				continue
			}
			id := sp.id
			srcTs := int64(sp.begin)
			if srcTs < int64(par.begin) {
				srcTs = int64(par.begin)
			}
			if srcTs > int64(par.end) {
				srcTs = int64(par.end)
			}
			out.TraceEvents = append(out.TraceEvents,
				chromeEvent{Name: sp.name, Cat: "flow", Ph: "s", Ts: usec(srcTs), Pid: par.pid, Tid: par.tid, ID: &id},
				chromeEvent{Name: sp.name, Cat: "flow", Ph: "f", BP: "e", Ts: usec(int64(sp.begin)), Pid: sp.pid, Tid: sp.tid, ID: &id},
			)
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// traceFixture records every kind of event the export distinguishes across
// three scopes: nested and zero-length spans, cross-track children whose
// flow source clamps to the parent's begin, lies inside it, or clamps to its
// end, a span never ended and its child, instants with and without args and
// an enclosing span, names that need escaping, and a late timestamp. The
// ticks make the trace longer than bufio's buffer.
func traceFixture() *Obs {
	o := New()
	o.EnableTrace()
	fe, be := o.Scope("dev0"), o.Scope("dev1").Scope("ftl")
	eng := sim.NewEngine()
	defer eng.Shutdown()
	eng.Go("host", func(p *sim.Proc) {
		o.Instant(p, "client", "start")
		p.Wait(time.Microsecond)
		root := o.Begin(p, "client", `query "a" <b> & c`+" é")
		o.Instant(p, "client", "retry", "k", "1", "k", "2", "span", "x", "odd")
		o.Instant(p, "client", "tick")
		inner := o.Begin(p, "client", "inner")
		o.Begin(p, "client", "zero").End()
		for i := 0; i < 60; i++ {
			o.Begin(p, "client", "tick").End()
			p.Wait(3 * time.Nanosecond)
		}
		inner.End()
		ctx := root.Ctx()
		early := fe.BeginAt(500, ctx, "fe", "early")
		early.EndAt(800)
		mid := fe.BeginAt(p.Now()+1, ctx, "fe", "mid")
		mid.EndAt(p.Now() + 1001)
		open := fe.BeginAt(p.Now()+2, ctx, "fe", "open")
		orphan := be.BeginAt(p.Now()+3, open.Ctx(), "be", "orphan")
		orphan.EndAt(p.Now() + 4)
		p.Wait(4 * time.Microsecond)
		root.End()
		late := be.BeginAt(p.Now()+9000, ctx, "be", "late")
		late.EndAt(p.Now() + 9000)
		be.InstantAt(p.Now()+7, "fault", "drop", "why", "chaos")
		fe.InstantAt(sim.Time(1)<<50, "fe", "far")
	})
	eng.Run()
	return o
}

// The streamed export is byte for byte the in-memory oracle's, on a nil
// tracer, an enabled empty one and the fixture.
func TestStreamedTraceMatchesOracle(t *testing.T) {
	empty := New()
	empty.EnableTrace()
	for _, c := range []struct {
		name string
		t    *tracer
	}{{"nil", nil}, {"empty", empty.shared.tracer}, {"fixture", traceFixture().shared.tracer}} {
		var got bytes.Buffer
		if err := writeChromeTrace(&got, c.t); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := oracleChromeTrace(c.t)
		if !bytes.Equal(got.Bytes(), want) {
			n := 0
			for n < min(got.Len(), len(want)) && got.Bytes()[n] == want[n] {
				n++
			}
			t.Errorf("%s: streamed trace differs from the oracle at byte %d\ngot:  %.200s\nwant: %.200s", c.name, n, got.Bytes()[n:], want[n:])
		}
	}
}

// failingWriter accepts ok bytes, then fails every write.
type failingWriter struct{ ok int }

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(b []byte) (int, error) {
	if len(b) > w.ok {
		n := w.ok
		w.ok = 0
		return n, errDiskFull
	}
	w.ok -= len(b)
	return len(b), nil
}

// A write that fails mid-stream comes back from the export.
func TestStreamedTraceReturnsWriteError(t *testing.T) {
	tr := traceFixture().shared.tracer
	var full bytes.Buffer
	if err := writeChromeTrace(&full, tr); err != nil || full.Len() <= 4096 {
		t.Fatalf("fixture trace is %d bytes (err %v), want more than one 4096-byte buffer", full.Len(), err)
	}
	if err := writeChromeTrace(&failingWriter{ok: 100}, tr); !errors.Is(err, errDiskFull) {
		t.Errorf("export to a failing writer returned %v, want %v", err, errDiskFull)
	}
}
