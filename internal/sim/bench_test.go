package sim

import (
	"strconv"
	"testing"
	"time"
)

func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, tick)
		}
	}
	e.After(time.Microsecond, tick)
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(n), "events")
}

func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine()
	e.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(time.Nanosecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkCond is one wait-and-wake round trip through a Cond: a waiter
// parks, and a second process wakes it a nanosecond later.
func BenchmarkCond(b *testing.B) {
	e := NewEngine()
	var c Cond
	done := false
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Wait(p)
		}
		done = true
	})
	e.Go("waker", func(p *Proc) {
		for !done {
			p.Wait(time.Nanosecond)
			c.Signal()
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkResourceContention(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, 4)
	const workers = 16
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		e.Go("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				r.Use(p, time.Nanosecond)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

func BenchmarkLinkTransfers(b *testing.B) {
	e := NewEngine()
	l := NewLink(e, "x", 1e9, time.Microsecond)
	e.Go("dma", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			l.Transfer(p, 4096)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkMailboxDeep queues depth items, then drains them: a write-back
// mailbox's pattern when staging fills a device. The ns/item must not grow
// with depth.
func BenchmarkMailboxDeep(b *testing.B) {
	for _, depth := range []int{1 << 10, 1 << 14} {
		b.Run(strconv.Itoa(depth), func(b *testing.B) {
			e := NewEngine()
			mb := NewMailbox[int]()
			e.Go("drain", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					for j := 0; j < depth; j++ {
						mb.Put(j)
					}
					for j := 0; j < depth; j++ {
						mb.Recv(p)
					}
				}
			})
			b.ResetTimer()
			e.Run()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*depth), "ns/item")
		})
	}
}

// BenchmarkProcSwitch measures the full park/resume handoff. Two procs wait
// in lockstep, so each wait always has the other proc's earlier wake-up
// pending and the inline fast path can never engage — unlike
// BenchmarkProcessSwitch above, which a lone proc turns into a pure
// inline-advance measurement.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	per := b.N/2 + 1
	body := func(p *Proc) {
		for i := 0; i < per; i++ {
			p.Wait(2 * time.Nanosecond)
		}
	}
	e.Go("a", body)
	e.Go("b", func(p *Proc) {
		p.Wait(time.Nanosecond) // offset so the two never share an instant
		body(p)
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkEventChurn keeps a window of outstanding timers live, each
// rescheduling itself at a pseudo-random offset that straddles the wheel
// horizon, so insert, fill, pop, and the occupancy scan all stay hot — the
// scheduler's cost under load rather than the single-timer drain above.
func BenchmarkEventChurn(b *testing.B) {
	e := NewEngine()
	const window = 256
	n := 0
	rngState := uint64(0x9e3779b97f4a7c15)
	next := func() int64 {
		rngState ^= rngState << 13
		rngState ^= rngState >> 7
		rngState ^= rngState << 17
		return int64(rngState % (3 * wheelBuckets << bucketShift))
	}
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Duration(next()+1), tick)
		}
	}
	for i := 0; i < window; i++ {
		e.After(time.Duration(next()+1), tick)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineAccounting measures the dispatch-loop cost of scheduler
// accounting: off (the nil-check-only baseline), on (event and depth
// counters), and on with wall capture, which reads the clock and MemStats
// once at enable and adds nothing per event — no variant calls time.Now per
// event. Compare ns/op across the three to read the overhead;
// TestAccountingOverhead gates it loosely.
func BenchmarkEngineAccounting(b *testing.B) {
	bench := func(cfg *AccountingConfig) func(*testing.B) {
		return func(b *testing.B) {
			e := NewEngine()
			if cfg != nil {
				e.EnableAccounting(*cfg)
			}
			n := 0
			var tick func()
			tick = func() {
				n++
				if n < b.N {
					e.After(time.Microsecond, tick)
				}
			}
			e.After(time.Microsecond, tick)
			b.ResetTimer()
			e.Run()
		}
	}
	b.Run("off", bench(nil))
	b.Run("on", bench(&AccountingConfig{}))
	b.Run("on-wall", bench(&AccountingConfig{Wall: true}))
}
