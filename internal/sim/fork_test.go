package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// forkScenario is one seeded run for the Fork oracle: a parent forks
// children that wait seeded delays (some zero, many ending together)
// beside a rival process and callbacks landing on the same instants.
type forkScenario struct {
	seed    int64
	fastOff bool // the engine runs with the fast paths off
}

// run plays the scenario with the parent using Fork, or the hand-rolled
// WaitGroup loop it must equal. It returns everything that happened, in
// order and with its instant, the events dispatched and the last seq number.
func (sc forkScenario) run(useFork bool) (log []string, events int64, seq uint64) {
	e := NewEngine()
	defer e.Shutdown()
	e.fastOff = sc.fastOff
	a := e.EnableAccounting(AccountingConfig{})
	rng := rand.New(rand.NewSource(sc.seed))
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", e.Now())+fmt.Sprintf(format, args...))
	}
	const d = 20 * time.Nanosecond
	delays := make([]Duration, rng.Intn(6))
	for i := range delays {
		delays[i] = Duration(rng.Intn(4)) * d
	}
	lead := Duration(rng.Intn(3)) * d
	var rivalAt, callbackAt [3]Time
	for i := range rivalAt {
		rivalAt[i], callbackAt[i] = Time(rng.Intn(8))*Time(d), Time(rng.Intn(8))*Time(d)
	}

	n := len(delays)
	child := func(c *Proc, i int) {
		note("child %d starts", i)
		c.Wait(delays[i])
		note("child %d ends", i)
	}
	e.Go("parent", func(p *Proc) {
		p.Wait(lead)
		note("parent forks %d", n)
		if useFork {
			p.Fork(n, func(i int) string { return fmt.Sprint("child", i) }, child)
		} else {
			var wg WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				e.Go(fmt.Sprint("child", i), func(c *Proc) {
					defer wg.Done()
					child(c, i)
				})
			}
			wg.Wait(p)
		}
		note("parent resumes")
	})
	e.Go("rival", func(p *Proc) {
		for i, t := range rivalAt {
			p.WaitUntil(max(t, p.Now()))
			note("rival %d", i)
		}
	})
	for i, t := range callbackAt {
		e.At(t, func() { note("callback %d", i) })
	}
	e.Run()
	return log, a.Events(), e.seq
}

// Fork is the hand-rolled fork-join: the same child start order and
// instants, the same parent resume instant, the same order of everything
// around them and the same event count and seq numbering — also with the
// fast paths off, when every child waits through the queue.
func TestForkMatchesLoop(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		for _, sc := range []forkScenario{{seed: seed}, {seed: seed, fastOff: true}} {
			wantLog, wantEvents, wantSeq := sc.run(false)
			gotLog, gotEvents, gotSeq := sc.run(true)
			if !slices.Equal(gotLog, wantLog) || gotEvents != wantEvents || gotSeq != wantSeq {
				t.Fatalf("%+v: Fork differs from the loop\nloop: %d events, seq %d\n%v\nFork: %d events, seq %d\n%v",
					sc, wantEvents, wantSeq, wantLog, gotEvents, gotSeq, gotLog)
			}
		}
	}
}

// Children of Proc.Go and Proc.Fork start in the spawner's obs context;
// children of Engine.Go start in none.
func TestForkedChildrenInheritObsCtx(t *testing.T) {
	e := NewEngine()
	var got []any
	record := func(c *Proc) { got = append(got, c.ObsCtx()) }
	e.Go("parent", func(p *Proc) {
		p.SetObsCtx("span")
		p.Go("go", record)
		p.Fork(2, func(int) string { return "fork" }, func(c *Proc, _ int) { record(c) })
		e.Go("engine", record)
	})
	e.Run()
	if want := []any{"span", "span", "span", nil}; !slices.Equal(got, want) {
		t.Fatalf("children started with contexts %v, want %v", got, want)
	}
}

// Fork(0, …) names nothing, starts nothing and returns without parking.
func TestForkZeroDoesNotPark(t *testing.T) {
	e := NewEngine()
	a := e.EnableAccounting(AccountingConfig{})
	e.Go("parent", func(p *Proc) {
		p.Fork(0, func(int) string { t.Error("named a child"); return "" },
			func(*Proc, int) { t.Error("started a child") })
	})
	e.Run()
	if a.ProcsStarted() != 1 || a.ProcSwitches() != 1 {
		t.Fatalf("%d procs started, %d switches; want 1 and 1 (no park)", a.ProcsStarted(), a.ProcSwitches())
	}
}
