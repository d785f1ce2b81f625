package sim

import (
	"testing"
	"time"
)

func TestProcWaitAdvancesTime(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Wait(42 * time.Millisecond)
		woke = p.Now()
	})
	e.Run()
	if woke != Time(42*time.Millisecond) {
		t.Fatalf("woke at %v, want 42ms", woke)
	}
}

func TestProcInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		e.Go("a", func(p *Proc) {
			log = append(log, "a0")
			p.Wait(10 * time.Millisecond)
			log = append(log, "a1")
			p.Wait(20 * time.Millisecond)
			log = append(log, "a2")
		})
		e.Go("b", func(p *Proc) {
			log = append(log, "b0")
			p.Wait(15 * time.Millisecond)
			log = append(log, "b1")
		})
		e.Run()
		return log
	}
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	for trial := 0; trial < 50; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: log %v, want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: log %v, want %v", trial, got, want)
			}
		}
	}
}

func TestProcWaitUntilPastIsNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Go("p", func(p *Proc) {
		p.Wait(time.Second)
		p.WaitUntil(Time(time.Millisecond)) // in the past
		at = p.Now()
	})
	e.Run()
	if at != Time(time.Second) {
		t.Fatalf("WaitUntil(past) finished at %v, want 1s", at)
	}
}

func TestProcDone(t *testing.T) {
	e := NewEngine()
	p := e.Go("p", func(p *Proc) { p.Wait(time.Second) })
	if p.done {
		t.Fatal("done before Run")
	}
	e.Run()
	if !p.done {
		t.Fatal("not done after Run")
	}
	if p.name != "p" {
		t.Fatalf("name = %q", p.name)
	}
}

func TestProcYield(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Go("first", func(p *Proc) {
		log = append(log, "first-before")
		p.Wait(0)
		log = append(log, "first-after")
	})
	e.Go("second", func(p *Proc) {
		log = append(log, "second")
	})
	e.Run()
	want := []string{"first-before", "second", "first-after"}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestProcNegativeWaitPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Wait(-time.Second)
	})
	e.Run()
	if !panicked {
		t.Fatal("negative Wait did not panic")
	}
}

func TestManyProcsScale(t *testing.T) {
	e := NewEngine()
	const n = 1000
	done := 0
	for i := 0; i < n; i++ {
		d := time.Duration(i%17+1) * time.Millisecond
		e.Go("worker", func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Wait(d)
			}
			done++
		})
	}
	e.Run()
	if done != n {
		t.Fatalf("%d of %d processes completed", done, n)
	}
}

// Scratch memory belongs to the worker: a process started after another
// returned runs on its recycled worker and gets the same memory, one larger
// than that memory gets a new one, and two live processes never share it.
func TestScratchFollowsTheWorker(t *testing.T) {
	e := NewEngine()
	var a, b, c, d []byte
	e.Go("a", func(p *Proc) { a = p.Scratch(64) })
	e.Run()
	e.Go("b", func(p *Proc) {
		if b = p.Scratch(32); &b[0] != &a[0] {
			t.Error("a process on a recycled worker got new scratch memory")
		}
		if again := p.Scratch(64); &again[0] != &a[0] {
			t.Error("a second Scratch within the worker's capacity moved")
		}
		if big := p.Scratch(128); len(big) != 128 || &big[0] == &a[0] {
			t.Error("a Scratch past the worker's capacity did not get new memory")
		}
	})
	e.Run()
	e.Go("c", func(p *Proc) {
		c = p.Scratch(64)
		p.Wait(time.Millisecond)
	})
	e.Go("d", func(p *Proc) { d = p.Scratch(64) }) // while c is live
	e.Run()
	if &c[0] == &d[0] {
		t.Error("two live processes share scratch memory")
	}
}
