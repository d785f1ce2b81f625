package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// pollScenario is one seeded run of the dispatch oracle: pollers stalled on
// flags that callbacks clear and set again — some exactly on poll instants —
// beside processes and callbacks competing for the same instants.
type pollScenario struct {
	seed    int64
	traced  bool // the pollers carry an obs context, which must not change dispatch
	chunked bool // the run advances in RunUntil steps
}

// run plays the scenario, each poller a `for cond() { p.Wait(d) }` loop. It
// returns everything that happened, in order and with its instant, the
// engine's accounting and the last seq number.
func (sc pollScenario) run() (log []string, a *Accounting, seq uint64) {
	e := NewEngine()
	defer e.Shutdown()
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
		busy[i] = rng.Intn(5) != 0 // some start clear: the loop never waits
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
			for cond() {
				p.Wait(d)
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

// A process's obs context is opaque to the kernel: traced pollers dispatch
// exactly as untraced ones, with as many inline waits and process switches.
func TestTracedProcsDispatchAlike(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		for _, sc := range []pollScenario{{seed: seed}, {seed: seed, chunked: true}} {
			wantLog, want, wantSeq := sc.run()
			sc.traced = true
			gotLog, got, gotSeq := sc.run()
			if !slices.Equal(gotLog, wantLog) || got.Events() != want.Events() || gotSeq != wantSeq ||
				got.InlineWaits() != want.InlineWaits() || got.ProcSwitches() != want.ProcSwitches() {
				t.Fatalf("%+v: traced pollers dispatch differently\nuntraced: %d events, seq %d, %d inline, %d switches\n%v\ntraced:   %d events, seq %d, %d inline, %d switches\n%v",
					sc, want.Events(), wantSeq, want.InlineWaits(), want.ProcSwitches(), wantLog,
					got.Events(), gotSeq, got.InlineWaits(), got.ProcSwitches(), gotLog)
			}
		}
	}
}
