package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// linkLoad sums a link's transfers and occupancy through its busy hook.
type linkLoad struct {
	n    int
	busy Duration
}

func watchLoad(l *Link) *linkLoad {
	w := &linkLoad{}
	l.SetBusyHook(func(_ Time, d Duration) { w.n++; w.busy += d })
	return w
}

func TestLinkSingleTransferTime(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "pcie", 1e9, 2*time.Microsecond) // 1 GB/s, 2us latency
	load := watchLoad(l)
	var done Time
	e.Go("dma", func(p *Proc) {
		l.Transfer(p, 1_000_000) // 1 MB at 1 GB/s = 1ms
		done = p.Now()
	})
	e.Run()
	want := Time(time.Millisecond + 2*time.Microsecond)
	if done != want {
		t.Fatalf("transfer finished at %v, want %v", done, want)
	}
	if l.Bytes() != 1_000_000 || load.n != 1 {
		t.Fatalf("counters: bytes=%d xfers=%d", l.Bytes(), load.n)
	}
}

func TestLinkFIFOSerialization(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "bus", 1e6, 0) // 1 MB/s
	load := watchLoad(l)
	var done []Time
	for i := 0; i < 3; i++ {
		e.Go("x", func(p *Proc) {
			l.Transfer(p, 1000) // 1ms each, serialized
			done = append(done, p.Now())
		})
	}
	e.Run()
	want := []Time{Time(time.Millisecond), Time(2 * time.Millisecond), Time(3 * time.Millisecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion times %v, want %v", done, want)
		}
	}
	if load.busy != 3*time.Millisecond {
		t.Fatalf("busy = %v, want 3ms", load.busy)
	}
	if u := load.busy.Seconds() / e.Now().Seconds(); u != 1.0 {
		t.Fatalf("utilization = %v, want 1", u)
	}
}

func TestLinkZeroBytesOnlyLatency(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "ctl", 1e9, 3*time.Microsecond)
	var done Time
	e.Go("msg", func(p *Proc) {
		l.Transfer(p, 0)
		done = p.Now()
	})
	e.Run()
	if done != Time(3*time.Microsecond) {
		t.Fatalf("done at %v, want 3us", done)
	}
}

func TestLinkContentionSharesBandwidthFIFO(t *testing.T) {
	// Two 1MB transfers at 1GB/s arriving together: second completes at 2ms,
	// demonstrating FIFO occupancy rather than fair sharing (store-and-forward).
	e := NewEngine()
	l := NewLink(e, "x", 1e9, 0)
	var last Time
	for i := 0; i < 2; i++ {
		e.Go("x", func(p *Proc) {
			l.Transfer(p, 1_000_000)
			last = p.Now()
		})
	}
	e.Run()
	if last != Time(2*time.Millisecond) {
		t.Fatalf("last completion %v, want 2ms", last)
	}
}

func TestLinkOnActiveHook(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "x", 1e6, 0)
	var total time.Duration
	l.SetOnActive(func(d time.Duration) { total += d })
	e.Go("x", func(p *Proc) {
		l.Transfer(p, 500)
		l.Transfer(p, 1500)
	})
	e.Run()
	if total != 2*time.Millisecond {
		t.Fatalf("hook accumulated %v, want 2ms", total)
	}
}

func TestLinkDelay(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "x", 1e9, 5*time.Microsecond)
	var done Time
	e.Go("x", func(p *Proc) {
		l.Delay(p)
		done = p.Now()
	})
	e.Run()
	if done != Time(5*time.Microsecond) {
		t.Fatalf("delay finished at %v", done)
	}
}

// Property: total busy time equals the sum of per-transfer serialisation
// times, and completion of the last FIFO transfer equals total
// serialisation when all transfers are enqueued at t=0 on a zero-latency
// link.
func TestLinkBusyTimeProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := NewEngine()
		l := NewLink(e, "x", 1e6, 0)
		load := watchLoad(l)
		var wantBusy time.Duration
		for _, s := range sizes {
			n := int64(s)
			wantBusy += DurationFor(n, 1e6)
			e.Go("x", func(p *Proc) { l.Transfer(p, n) })
		}
		end := e.Run()
		if load.busy != wantBusy {
			return false
		}
		return len(sizes) == 0 || end == Time(wantBusy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLinkNegativeTransferPanics(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "x", 1e6, 0)
	panicked := false
	e.Go("x", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		l.Transfer(p, -1)
	})
	e.Run()
	if !panicked {
		t.Fatal("negative transfer did not panic")
	}
}

func TestNewLinkValidation(t *testing.T) {
	e := NewEngine()
	for _, c := range []struct {
		bps float64
		lat time.Duration
	}{{0, 0}, {-1, 0}, {1e6, -time.Second}} {
		func() {
			defer func() { recover() }()
			NewLink(e, "bad", c.bps, c.lat)
			t.Errorf("NewLink(%g, %v) did not panic", c.bps, c.lat)
		}()
	}
}
