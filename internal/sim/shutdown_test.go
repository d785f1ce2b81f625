package sim

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"
)

// mustPanic runs fn and returns the value it panicked with, failing the test
// if it returned normally.
func mustPanic(t *testing.T, what string, fn func()) (v any) {
	t.Helper()
	defer func() {
		if v = recover(); v == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
	return nil
}

// goroutineBaseline returns the goroutine count once goroutines that are
// merely on their way out — the previous test's runner, typically — have
// gone, so the exact deltas asserted below cannot be off by one. Coroutine
// creation and release are synchronous; only this baseline needs settling.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for quiet := 0; quiet < 5; quiet++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, quiet = m, 0
		}
	}
	return n
}

// TestShutdownReleasesEveryWorker drives one engine into every state a worker
// can be in — parked mid-body, bound but never started, recycled and idle,
// prewarmed and never used — and checks that Shutdown unwinds the parked
// bodies through their defers, runs nothing else, and gives every coroutine
// back to the runtime.
func TestShutdownReleasesEveryWorker(t *testing.T) {
	base := goroutineBaseline()
	e := NewEngine()
	e.Prewarm(8)
	if got := runtime.NumGoroutine(); got != base+8 {
		t.Fatalf("after Prewarm(8): %d goroutines, want %d", got, base+8)
	}

	var log []string
	mb := NewMailbox[int]()
	for i := 0; i < 3; i++ {
		i := i
		e.Go("parked", func(p *Proc) {
			defer func() { log = append(log, fmt.Sprintf("defer%d", i)) }()
			mb.Recv(p) // nobody sends
			log = append(log, "parked body continued")
		})
	}
	e.Go("sleeper", func(p *Proc) {
		defer func() {
			// Cleanup may touch the engine: schedules are dropped, and a
			// second blocking call unwinds again instead of hanging.
			e.After(time.Second, func() { log = append(log, "event after kill") })
			defer func() { log = append(log, "sleeper unwound twice") }()
			p.Wait(time.Second)
		}()
		p.Wait(time.Hour)
	})
	for i := 0; i < 4; i++ {
		e.Go("short", func(p *Proc) { p.Wait(time.Millisecond) })
	}
	e.RunUntil(Time(time.Second)) // shorts finish and recycle; the rest park
	e.Go("unstarted", func(p *Proc) { log = append(log, "unstarted body ran") })
	e.Go("unstarted", func(p *Proc) { log = append(log, "unstarted body ran") })
	for i := 0; i < 12; i++ { // outgrow the prewarmed pool
		e.Go("unstarted", func(p *Proc) { log = append(log, "unstarted body ran") })
	}
	if got := runtime.NumGoroutine(); got <= base+8 {
		t.Fatalf("pool did not grow: %d goroutines", got)
	}

	e.Shutdown()
	sort.Strings(log) // workers unwind in pool order, which nothing relies on
	want := []string{"defer0", "defer1", "defer2", "sleeper unwound twice"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("unwind log %v, want %v", log, want)
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("after Shutdown: %d goroutines, want baseline %d", got, base)
	}

	e.Shutdown() // idempotent
	mustPanic(t, "Go after Shutdown", func() { e.Go("late", func(*Proc) {}) })
	mustPanic(t, "Run after Shutdown", func() { e.Run() })
	mustPanic(t, "After after Shutdown", func() { e.After(0, func() {}) })
	mustPanic(t, "Prewarm after Shutdown", func() { e.Prewarm(1) })
}

func TestShutdownDuringRunPanics(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	var got any
	e.After(0, func() {
		defer func() { got = recover() }()
		e.Shutdown()
	})
	e.Run()
	if got == nil {
		t.Fatal("Shutdown inside Run did not panic")
	}
}

// TestProcPanicSurfacesFromRun: a panic in a proc body arrives, with its
// value, at whoever called Run — on the channel-backed engine it crashed the
// binary from a worker goroutine. The engine stays usable for Shutdown.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	base := goroutineBaseline()
	e := NewEngine()
	type boom struct{ at Time }
	cleaned := false
	e.Go("bystander", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Wait(time.Hour)
	})
	e.Go("faulty", func(p *Proc) {
		p.Wait(time.Millisecond)
		p.Wait(time.Millisecond)
		panic(boom{p.Now()})
	})
	v := mustPanic(t, "Run", func() { e.Run() })
	if b, ok := v.(boom); !ok || b.at != Time(2*time.Millisecond) {
		t.Fatalf("recovered %#v, want boom at 2ms", v)
	}
	e.Shutdown()
	if !cleaned {
		t.Fatal("Shutdown after a proc panic did not unwind the other procs")
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("after Shutdown: %d goroutines, want baseline %d", got, base)
	}
}

// TestProcGoexitSurfacesFromRun: runtime.Goexit in a body (what a stray
// t.Fatal does) ends the goroutine that called Run instead of stranding it.
func TestProcGoexitSurfacesFromRun(t *testing.T) {
	returned, exited := false, make(chan struct{})
	go func() {
		defer close(exited)
		e := NewEngine()
		e.Go("quitter", func(p *Proc) {
			p.Wait(time.Millisecond)
			runtime.Goexit()
		})
		e.Run()
		returned = true
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked after a proc called Goexit")
	}
	if returned {
		t.Fatal("Run returned normally after a proc called Goexit")
	}
}

// TestNestedEngineInsideProc runs a whole inner engine, procs and all, from
// within a proc of an outer one: coroutine switches nest.
func TestNestedEngineInsideProc(t *testing.T) {
	outer := NewEngine()
	defer outer.Shutdown()
	var innerEnd, resumedAt Time
	ticks := 0
	outer.Go("ticker", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Wait(time.Millisecond)
			ticks++
		}
	})
	outer.Go("host", func(p *Proc) {
		p.Wait(2 * time.Millisecond)
		inner := NewEngine()
		defer inner.Shutdown()
		r := NewResource(inner, 1)
		for i := 0; i < 3; i++ {
			inner.Go("w", func(q *Proc) { r.Use(q, time.Second) })
		}
		innerEnd = inner.Run()
		p.Wait(time.Millisecond)
		resumedAt = p.Now()
	})
	outer.Run()
	if innerEnd != Time(3*time.Second) {
		t.Fatalf("inner engine ended at %v, want 3s", innerEnd)
	}
	if resumedAt != Time(3*time.Millisecond) || ticks != 4 {
		t.Fatalf("outer resumed at %v with %d ticks, want 3ms and 4", resumedAt, ticks)
	}
}

// TestWorkerPoolAccounting pins the pool's observable behaviour: which Go
// reuses a worker, how many switches a run costs, and how many goroutines
// back it.
func TestWorkerPoolAccounting(t *testing.T) {
	base := goroutineBaseline()
	e := NewEngine()
	defer e.Shutdown()
	a := e.EnableAccounting(AccountingConfig{})
	e.Prewarm(2)
	stagger := func(n int) {
		for i := 0; i < n; i++ {
			d := time.Duration(i+1) * time.Millisecond
			e.Go("w", func(p *Proc) { p.Wait(d); p.Wait(d) })
		}
		e.Run()
	}
	stagger(5) // 2 prewarmed + 3 fresh workers
	if s, r := a.ProcsStarted(), a.procsReused; s != 5 || r != 2 {
		t.Fatalf("first wave: started %d reused %d, want 5 and 2", s, r)
	}
	stagger(5) // all from the free list
	if s, r := a.ProcsStarted(), a.procsReused; s != 10 || r != 7 {
		t.Fatalf("second wave: started %d reused %d, want 10 and 7", s, r)
	}
	// A wave never inlines: each wait has another proc's wake-up pending at
	// or before its end. A proc alone on the engine is switched into once and
	// completes both waits inline.
	e.Go("solo", func(p *Proc) { p.Wait(time.Second); p.Wait(time.Second) })
	e.Run()
	if sw, in := a.ProcSwitches(), a.InlineWaits(); sw != 31 || in != 2 {
		t.Fatalf("switches %d inline %d, want 31 and 2", sw, in)
	}
	if g := runtime.NumGoroutine(); g != base+5 {
		t.Fatalf("goroutines %d, want %d (five pooled workers)", g, base+5)
	}
}
