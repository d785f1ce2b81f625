package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"compstor/internal/sim"
)

func TestCounterDeltas(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-2)
	if got := c.Value(); got != 3 {
		t.Fatalf("value = %d, want 3", got)
	}
	// Negative past zero clamps rather than going negative.
	c.Add(-10)
	if got := c.Value(); got != 0 {
		t.Fatalf("after underflow value = %d, want 0", got)
	}
	// Positive overflow saturates rather than wrapping.
	c.Add(math.MaxInt64)
	c.Add(math.MaxInt64)
	if got := c.Value(); got != math.MaxInt64 {
		t.Fatalf("after overflow value = %d, want MaxInt64", got)
	}
	var nilC *Counter
	nilC.Add(1) // must not panic
	if nilC.Value() != 0 {
		t.Fatal("nil counter reads non-zero")
	}
}

func TestHistogramZeroSamples(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram must report zeros everywhere")
	}
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	if nilH.Quantile(0.99) != 0 {
		t.Fatal("nil histogram quantile non-zero")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != time.Microsecond || h.Max() != 1000*time.Microsecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	// Log-bucketed interpolation is approximate: require ordering and the
	// right order of magnitude.
	if p50 <= 0 || p99 < p50 || p99 > h.Max() {
		t.Fatalf("quantiles out of order: p50=%v p99=%v max=%v", p50, p99, h.Max())
	}
	if p50 < 200*time.Microsecond || p50 > 800*time.Microsecond {
		t.Fatalf("p50 = %v, want within [200us, 800us]", p50)
	}
	// Negative observations clamp to zero, landing in the zero bucket.
	var h2 Histogram
	h2.Observe(-time.Second)
	if h2.Max() != 0 || h2.Quantile(1) != 0 {
		t.Fatalf("negative observation not clamped: max=%v", h2.Max())
	}
}

func TestSpanEndWithoutBegin(t *testing.T) {
	var s *Span
	s.End() // nil span: no-op
	if s.Ctx().Valid() {
		t.Fatal("nil span has a valid ctx")
	}
	// Double End must record exactly one span.
	o := New()
	o.EnableTrace()
	eng := sim.NewEngine()
	eng.Go("p", func(p *sim.Proc) {
		sp := o.Begin(p, "t", "work")
		p.Wait(time.Millisecond)
		sp.End()
		sp.End()
	})
	eng.Run()
	if n := len(o.shared.tracer.recs); n != 1 {
		t.Fatalf("recorded %d spans, want 1", n)
	}
}

func TestSpanParenting(t *testing.T) {
	o := New()
	o.EnableTrace()
	eng := sim.NewEngine()
	eng.Go("p", func(p *sim.Proc) {
		outer := o.Begin(p, "t", "outer")
		inner := o.Begin(p, "t", "inner")
		if CtxOf(p) != inner.Ctx() {
			t.Error("inner span not installed as proc ctx")
		}
		inner.End()
		if CtxOf(p) != outer.Ctx() {
			t.Error("End did not restore outer ctx")
		}
		outer.End()
		if CtxOf(p).Valid() {
			t.Error("ctx not cleared after outermost End")
		}
	})
	eng.Run()
	sp := o.shared.tracer.recs
	if len(sp) != 2 || sp[0].name != "inner" || sp[0].parent != sp[1].id {
		t.Fatalf("bad parenting: %+v", sp)
	}
}

func TestTraceDisabledIsNoop(t *testing.T) {
	o := New() // trace not enabled
	eng := sim.NewEngine()
	eng.Go("p", func(p *sim.Proc) {
		sp := o.Begin(p, "t", "work")
		if sp != nil {
			t.Error("Begin returned a live span with tracing off")
		}
		o.Instant(p, "t", "evt")
		sp.End()
	})
	eng.Run()
	if len(o.shared.tracer.recs) != 0 {
		t.Fatal("disabled tracer recorded events")
	}
	var nilO *Obs
	nilO.Instant(nil, "t", "evt")
	nilO.Begin(nil, "t", "x").End()
	if nilO.Counter("c").Value() != 0 || nilO.Histogram("h").Count() != 0 {
		t.Fatal("nil Obs not inert")
	}
}

func TestTraceExportEmptyRun(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if doc.TraceEvents == nil {
		t.Fatal("traceEvents must be an empty array, not null")
	}
	var nilBuf bytes.Buffer
	if err := (*Obs)(nil).WriteTrace(&nilBuf); err != nil {
		t.Fatal(err)
	}
}

func TestTraceFlowAcrossTracks(t *testing.T) {
	o := New()
	o.EnableTrace()
	dev := o.Scope("dev0")
	eng := sim.NewEngine()
	eng.Go("host", func(p *sim.Proc) {
		root := o.Begin(p, "client", "query")
		ctx := root.Ctx()
		p.Wait(time.Millisecond)
		eng.Go("dev", func(dp *sim.Proc) {
			sp := dev.BeginAt(dp.Now(), ctx, "fe", "exec")
			dp.Wait(time.Millisecond)
			sp.EndAt(dp.Now())
		})
		p.Wait(2 * time.Millisecond)
		root.End()
	})
	eng.Run()
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"ph":"s"`) || !strings.Contains(s, `"ph":"f"`) {
		t.Fatalf("cross-track parent produced no flow events:\n%s", s)
	}
	if !strings.Contains(s, `"name":"dev0"`) {
		t.Fatalf("scope process name missing:\n%s", s)
	}
}

func TestTimelineWindowsAndCoarsening(t *testing.T) {
	tl := &Timeline{window: time.Millisecond, capacity: 1}
	tl.Add(0, 500*time.Microsecond)                      // half of window 0
	tl.Add(sim.Time(time.Millisecond), time.Millisecond) // all of window 1
	fr := tl.Fractions()
	if len(fr) != 2 || fr[0] != 0.5 || fr[1] != 1.0 {
		t.Fatalf("fractions = %v", fr)
	}
	if m := tl.Mean(); math.Abs(m-0.75) > 1e-9 {
		t.Fatalf("mean = %v, want 0.75", m)
	}
	// An interval far past the budget forces coarsening, not unbounded
	// growth.
	tl.Add(sim.Time(int64(10*maxWindows)*int64(time.Millisecond)), time.Millisecond)
	if len(tl.busy) > maxWindows {
		t.Fatalf("timeline grew to %d windows (budget %d)", len(tl.busy), maxWindows)
	}
	if tl.Window() <= time.Millisecond {
		t.Fatal("coarsening did not widen the window")
	}
	var nilTL *Timeline
	nilTL.Add(0, time.Second) // must not panic
}

func TestSnapshotScopingAndDeterminism(t *testing.T) {
	build := func() ([]byte, []byte) {
		o := New()
		s := o.Scope("fig7").Scope("n4")
		s.Counter("cluster.task_attempts").Add(7)
		s.Histogram("ftl.read").Observe(90 * time.Microsecond)
		s.Timeline("flash.ch0.busy", time.Millisecond, 1).Add(0, time.Millisecond/2)
		s.CounterFunc("ftl.gc_runs", func() int64 { return 3 })
		var scoped, root bytes.Buffer
		if err := s.Snapshot("n4").WriteJSON(&scoped); err != nil {
			t.Fatal(err)
		}
		if err := o.Snapshot("root").WriteJSON(&root); err != nil {
			t.Fatal(err)
		}
		return scoped.Bytes(), root.Bytes()
	}
	s1, r1 := build()
	s2, r2 := build()
	if !bytes.Equal(s1, s2) || !bytes.Equal(r1, r2) {
		t.Fatal("identical builds produced different snapshot bytes")
	}
	if !strings.Contains(string(s1), `"name": "cluster.task_attempts"`) {
		t.Fatalf("scoped snapshot should strip the prefix:\n%s", s1)
	}
	if !strings.Contains(string(r1), `"name": "fig7.n4.cluster.task_attempts"`) {
		t.Fatalf("root snapshot should keep full names:\n%s", r1)
	}
	if !strings.Contains(string(s1), `"name": "ftl.gc_runs"`) {
		t.Fatalf("CounterFunc value missing from snapshot:\n%s", s1)
	}
}

func TestQueueTimeHookSemantics(t *testing.T) {
	eng := sim.NewEngine()
	sem := sim.NewSemaphore(eng, 1)
	var waits []sim.Duration
	sem.SetQueueTimeHook(func(d sim.Duration) { waits = append(waits, d) })
	eng.Go("a", func(p *sim.Proc) {
		sem.Acquire(p, 1)
		p.Wait(time.Millisecond)
		sem.Release(1)
	})
	eng.Go("b", func(p *sim.Proc) {
		sem.Acquire(p, 1)
		sem.Release(1)
	})
	eng.Run()
	if len(waits) != 2 || waits[0] != 0 || waits[1] != time.Millisecond {
		t.Fatalf("queue-time hook reported %v, want [0 1ms]", waits)
	}
}
