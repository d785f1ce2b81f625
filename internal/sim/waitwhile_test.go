package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// pollScenario is one seeded run for the WaitWhile oracle: pollers stalled on
// flags that callbacks clear and set again — some exactly on poll instants —
// beside processes and callbacks competing for the same instants.
type pollScenario struct {
	seed    int64
	traced  bool // the pollers carry an obs context, which must not change dispatch
	fastOff bool // the engine runs with the fast paths off
	chunked bool // the run advances in RunUntil steps
}

// run plays the scenario with the pollers using WaitWhile, or the literal
// `for cond() { p.Wait(d) }` loop it must equal. It returns everything that
// happened, in order and with its instant, the engine's accounting and the
// last seq number.
func (sc pollScenario) run(useWaitWhile bool) (log []string, a *Accounting, seq uint64) {
	e := NewEngine()
	defer e.Shutdown()
	e.fastOff = sc.fastOff
	a = e.EnableAccounting(AccountingConfig{})
	rng := rand.New(rand.NewSource(sc.seed))
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", e.Now())+fmt.Sprintf(format, args...))
	}
	const d = 20 * time.Nanosecond
	// at draws an instant on the poll grid or just off it.
	at := func() Time {
		t := Time(rng.Intn(40)) * Time(d)
		if rng.Intn(2) == 0 {
			t += Time(rng.Intn(int(d)))
		}
		return t
	}

	const pollers = 4
	busy := make([]bool, pollers)
	for i := range busy {
		busy[i] = rng.Intn(5) != 0 // some start clear: WaitWhile returns at once
		for k := 0; k < 1+rng.Intn(3); k++ {
			t, set := at(), rng.Intn(3) == 0
			e.At(t, func() {
				note("flag %d = %v", i, set)
				busy[i] = set
			})
		}
		e.At(Time(41*d), func() { busy[i] = false }) // every poller ends
	}
	for i := 0; i < pollers; i++ {
		start := at()
		cond := func() bool { return busy[i] }
		e.Go(fmt.Sprint("poller", i), func(p *Proc) {
			if sc.traced {
				p.SetObsCtx(i)
			}
			p.WaitUntil(start)
			note("poller %d polls", i)
			if useWaitWhile {
				p.WaitWhile(d, cond)
			} else {
				for cond() {
					p.Wait(d)
				}
			}
			note("poller %d resumes", i)
			p.Wait(Duration(rng.Intn(3)) * d / 2)
			note("poller %d after", i)
		})
	}
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprint("rival", i), func(p *Proc) {
			for k := 0; k < 6; k++ {
				p.WaitUntil(at())
				note("rival %d", i)
			}
		})
		t := at()
		e.At(t, func() { note("callback") })
	}
	if sc.chunked {
		for end := Time(0); e.q.len() > 0; {
			end += Time(1 + rng.Intn(3*int(d)))
			e.RunUntil(end)
		}
	} else {
		e.Run()
	}
	return log, a, e.seq
}

// WaitWhile is the literal poll loop: the same resume instants, the same
// order of everything after them, the same event count and seq numbering —
// with the fast paths on and off, and across RunUntil deadlines.
func TestWaitWhileMatchesLoop(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		for _, sc := range []pollScenario{
			{seed: seed},
			{seed: seed, fastOff: true},
			{seed: seed, chunked: true},
		} {
			wantLog, want, wantSeq := sc.run(false)
			gotLog, got, gotSeq := sc.run(true)
			if !slices.Equal(gotLog, wantLog) || got.Events() != want.Events() || gotSeq != wantSeq {
				t.Fatalf("%+v: WaitWhile differs from the loop\nloop:      %d events, seq %d\n%v\nWaitWhile: %d events, seq %d\n%v",
					sc, want.Events(), wantSeq, wantLog, got.Events(), gotSeq, gotLog)
			}
		}
	}
}

// A process's obs context is opaque to the kernel: traced pollers dispatch
// exactly as untraced ones, with as many inline waits and process switches.
func TestTracedProcsDispatchAlike(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		for _, sc := range []pollScenario{{seed: seed}, {seed: seed, chunked: true}} {
			wantLog, want, wantSeq := sc.run(true)
			sc.traced = true
			gotLog, got, gotSeq := sc.run(true)
			if !slices.Equal(gotLog, wantLog) || got.Events() != want.Events() || gotSeq != wantSeq ||
				got.InlineWaits() != want.InlineWaits() || got.ProcSwitches() != want.ProcSwitches() {
				t.Fatalf("%+v: traced pollers dispatch differently\nuntraced: %d events, seq %d, %d inline, %d switches\n%v\ntraced:   %d events, seq %d, %d inline, %d switches\n%v",
					sc, want.Events(), wantSeq, want.InlineWaits(), want.ProcSwitches(), wantLog,
					got.Events(), gotSeq, got.InlineWaits(), got.ProcSwitches(), gotLog)
			}
		}
	}
}

// A poller stalled behind a competing event switches into its process once,
// when the condition turns false: every poll before that runs in engine
// context.
func TestWaitWhileSwitchesInOnce(t *testing.T) {
	e := NewEngine()
	a := e.EnableAccounting(AccountingConfig{})
	busy, polls := true, 0
	e.At(Time(95*time.Microsecond), func() { busy = false })
	e.Go("poller", func(p *Proc) {
		p.WaitWhile(10*time.Microsecond, func() bool { polls++; return busy })
		if p.Now() != Time(100*time.Microsecond) {
			t.Errorf("resumed at %v, want the first poll after the flag cleared, 100µs", p.Now())
		}
	})
	e.Run()
	// The start and the resumption; the flag's event blocks inlining only of
	// the poll that would pass it.
	if polls != 11 || a.ProcSwitches() != 2 {
		t.Errorf("%d polls, %d switches; want 11 polls and 2 switches", polls, a.ProcSwitches())
	}
}

// A stalled WaitWhile allocates nothing per poll, in engine context (fast
// paths off) or inline.
func TestStalledWaitWhileAllocatesNothing(t *testing.T) {
	for _, fastOff := range []bool{false, true} {
		e := NewEngine()
		e.fastOff = fastOff
		busy := true
		cond := func() bool { return busy }
		e.Go("poller", func(p *Proc) {
			p.WaitWhile(time.Microsecond, cond)
		})
		var tick func()
		tick = func() { e.After(3*time.Microsecond, tick) }
		e.After(0, tick)
		round := func() { e.RunUntil(e.Now().Add(100 * time.Microsecond)) }
		for i := 0; i < 400; i++ { // a full lap of the wheel, which allocates each slot once
			round()
		}
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Errorf("fastOff=%v: %v allocs per 100 polls, want 0", fastOff, n)
		}
		busy = false
		e.RunUntil(e.Now().Add(time.Microsecond))
		e.Shutdown()
	}
}
