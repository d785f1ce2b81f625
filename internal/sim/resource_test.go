package sim

import (
	"slices"
	"testing"
	"time"
)

func TestSemaphoreMutualExclusion(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 10; i++ {
		e.Go("p", func(p *Proc) {
			sem.Acquire(p, 1)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Wait(time.Millisecond)
			inside--
			sem.Release(1)
		})
	}
	e.Run()
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
}

func TestSemaphoreFIFOOrder(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, 1)
	var order []int
	// Holder keeps the semaphore until t=10ms; the others queue in spawn
	// order and must be granted in that order.
	e.Go("holder", func(p *Proc) {
		sem.Acquire(p, 1)
		p.Wait(10 * time.Millisecond)
		sem.Release(1)
	})
	for i := 0; i < 5; i++ {
		i := i
		e.Go("waiter", func(p *Proc) {
			p.Wait(time.Duration(i+1) * time.Millisecond)
			sem.Acquire(p, 1)
			order = append(order, i)
			sem.Release(1)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order = %v, want ascending", order)
		}
	}
}

func TestSemaphoreCountedAcquire(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, 4)
	var got []string
	e.Go("big", func(p *Proc) {
		sem.Acquire(p, 3)
		got = append(got, "big")
		p.Wait(5 * time.Millisecond)
		sem.Release(3)
	})
	e.Go("small", func(p *Proc) {
		p.Wait(time.Millisecond)
		sem.Acquire(p, 2) // only 1 free; must wait for big
		got = append(got, "small")
		sem.Release(2)
	})
	e.Run()
	if len(got) != 2 || got[0] != "big" || got[1] != "small" {
		t.Fatalf("order = %v", got)
	}
}

func TestSemaphoreOverCapacityPanics(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, 2)
	panicked := false
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		sem.Acquire(p, 3)
	})
	e.Run()
	if !panicked {
		t.Fatal("over-capacity acquire did not panic")
	}
}

// countAcquires counts r's successful acquisitions from now on, through
// its queue-time hook.
func countAcquires(r *Resource) *int64 {
	n := new(int64)
	r.SetQueueTimeHook(func(Duration) { *n++ })
	return n
}

func TestResourceConcurrencyLimit(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 3)
	acquires := countAcquires(r)
	inUseMax := 0
	for i := 0; i < 12; i++ {
		e.Go("w", func(p *Proc) {
			r.Acquire(p)
			if r.InUse() > inUseMax {
				inUseMax = r.InUse()
			}
			p.Wait(time.Millisecond)
			r.AddBusy(time.Millisecond)
			r.Release()
		})
	}
	end := e.Run()
	if inUseMax != 3 {
		t.Fatalf("max in use = %d, want 3", inUseMax)
	}
	// 12 jobs of 1ms on 3 servers = 4ms makespan.
	if end != Time(4*time.Millisecond) {
		t.Fatalf("makespan = %v, want 4ms", end)
	}
	if r.BusyTime() != 12*time.Millisecond {
		t.Fatalf("busy time = %v, want 12ms", r.BusyTime())
	}
	if *acquires != 12 {
		t.Fatalf("acquires = %d, want 12", *acquires)
	}
	if u := r.Utilization(); u != 1.0 {
		t.Fatalf("utilization = %v, want 1.0", u)
	}
}

func TestResourceUse(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			r.Use(p, 2*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{Time(2 * time.Millisecond), Time(4 * time.Millisecond), Time(6 * time.Millisecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times = %v, want %v", finish, want)
		}
	}
}

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int]()
	var got []int
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := mb.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Wait(time.Millisecond)
			mb.Put(i)
		}
		p.Wait(time.Millisecond)
		mb.Close()
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("received %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestMailboxBlocksUntilPut(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[string]()
	var recvAt Time
	e.Go("consumer", func(p *Proc) {
		v, ok := mb.Recv(p)
		if !ok || v != "hello" {
			t.Errorf("got %q ok=%v", v, ok)
		}
		recvAt = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Wait(7 * time.Millisecond)
		mb.Put("hello")
	})
	e.Run()
	if recvAt != Time(7*time.Millisecond) {
		t.Fatalf("received at %v, want 7ms", recvAt)
	}
}

func TestMailboxTryRecv(t *testing.T) {
	mb := NewMailbox[int]()
	if _, ok := mb.TryRecv(); ok {
		t.Fatal("TryRecv on empty returned ok")
	}
	mb.Put(9)
	if v, ok := mb.TryRecv(); !ok || v != 9 {
		t.Fatalf("TryRecv = %d, %v", v, ok)
	}
	if mb.Len() != 0 {
		t.Fatal("mailbox not drained")
	}
}

func TestMailboxCloseWakesReceivers(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int]()
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("consumer", func(p *Proc) {
			if _, ok := mb.Recv(p); !ok {
				woken++
			}
		})
	}
	e.Go("closer", func(p *Proc) {
		p.Wait(time.Millisecond)
		mb.Close()
	})
	e.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	if !mb.closed {
		t.Fatal("mailbox not closed")
	}
}

// Processes and callback waiters share one FIFO: grants go out in arrival
// order whichever kind waits, a callback runs as an event of its own at the
// releasing instant (after whatever the releaser still does in its event),
// and a callback that releases from inside its grant passes the token on to
// the next in line the same way.
func TestSemaphoreCallbackWaitersShareFIFO(t *testing.T) {
	e := NewEngine()
	acct := e.EnableAccounting(AccountingConfig{})
	sem := NewSemaphore(e, 1)
	var waits []Duration
	sem.SetQueueTimeHook(func(w Duration) { waits = append(waits, w) })
	var order []string
	note := func(s string) { order = append(order, s+"@"+e.Now().String()) }

	e.Go("holder", func(p *Proc) {
		sem.Acquire(p, 1)
		p.Wait(10 * time.Millisecond)
		sem.Release(1)
		note("released") // still inside the releasing event: before any grant runs
	})
	proc := func(name string, at, hold Duration) {
		e.Go(name, func(p *Proc) {
			p.Wait(at)
			sem.Acquire(p, 1)
			note(name)
			p.Wait(hold)
			sem.Release(1)
		})
	}
	callback := func(name string, at Duration, then func()) {
		e.After(at, func() {
			sem.AcquireFn(1, func() {
				note(name)
				then()
			})
		})
	}
	proc("p1", 1*time.Millisecond, time.Millisecond)
	callback("c2", 2*time.Millisecond, func() { e.After(time.Millisecond, func() { sem.Release(1) }) })
	proc("p3", 3*time.Millisecond, 0)
	// c4 releases inside its own grant event, which must grant c5 — a
	// callback granted by a callback — as a further event at that instant.
	callback("c4", 4*time.Millisecond, func() { sem.Release(1) })
	callback("c5", 5*time.Millisecond, func() { sem.Release(1) })
	proc("p6", 6*time.Millisecond, 0)
	e.Run()

	want := []string{"released@10ms", "p1@10ms", "c2@11ms", "p3@12ms", "c4@12ms", "c5@12ms", "p6@12ms"}
	if !slices.Equal(order, want) {
		t.Errorf("grant order\n got %v\nwant %v", order, want)
	}
	wantWaits := []Duration{0, 9e6, 9e6, 9e6, 8e6, 7e6, 6e6}
	if !slices.Equal(waits, wantWaits) {
		t.Errorf("queue-time hook saw %v, want %v", waits, wantWaits)
	}
	if sem.Available() != 1 || sem.QueueLen() != 0 {
		t.Errorf("semaphore left with %d tokens, %d waiters", sem.Available(), sem.QueueLen())
	}
	// A free semaphore grants a callback inside the call, without an event.
	before := acct.Events()
	ran := false
	sem.AcquireFn(1, func() { ran = true })
	if !ran || acct.Events() != before || e.q.len() != 0 {
		t.Errorf("uncontended AcquireFn: ran=%v, %d events, %d pending", ran, acct.Events()-before, e.q.len())
	}
}

// Swapping a parked process for a callback waiter moves nothing: the same
// contended schedule, driven once by processes and once by callbacks,
// dispatches the same number of events at the same instants.
func TestResourceAcquireFnMatchesProcess(t *testing.T) {
	run := func(callbacks bool) (trace []Time, acquires int64) {
		e := NewEngine()
		r := NewResource(e, 2)
		n := countAcquires(r)
		for i := 0; i < 7; i++ {
			arrive := Duration(i%3) * time.Microsecond
			hold := Duration(3+i%4) * time.Microsecond
			if callbacks {
				e.Go("user", func(p *Proc) {
					p.Wait(arrive)
					var wg WaitGroup
					wg.Add(1)
					r.AcquireFn(func() {
						trace = append(trace, e.Now())
						e.At(e.Now().Add(hold), func() {
							r.Release()
							wg.Done()
						})
					})
					wg.Wait(p)
				})
				continue
			}
			e.Go("user", func(p *Proc) {
				p.Wait(arrive)
				r.Acquire(p)
				trace = append(trace, e.Now())
				p.Wait(hold)
				r.Release()
			})
		}
		e.Run()
		return trace, *n
	}
	pt, pa := run(false)
	ct, ca := run(true)
	if !slices.Equal(pt, ct) || pa != ca {
		t.Errorf("grant instants differ:\nprocesses %v (%d acquires)\ncallbacks %v (%d acquires)", pt, pa, ct, ca)
	}
}

// A contended station must stop allocating once its queue has seen its
// high-water depth: the waiter FIFO is a ring that reuses its backing array
// instead of walking forward through it. Three processes and three callback users hammer one
// server without ever leaving the queue empty.
func TestContendedResourceAllocatesNothing(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	r := NewResource(e, 1)
	acquires := countAcquires(r)
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			for {
				r.Acquire(p)
				p.Wait(time.Microsecond)
				r.Release()
			}
		})
		var hold, release func()
		hold = func() { e.At(e.Now().Add(time.Microsecond), release) }
		release = func() {
			r.Release()
			r.AcquireFn(hold)
		}
		r.AcquireFn(hold)
	}
	round := func() { e.RunUntil(e.Now().Add(100 * time.Microsecond)) }
	for i := 0; i < 400; i++ { // a full lap of the scheduler's wheel, which allocates each slot once
		round()
	}
	before := *acquires
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("contended Resource: %v allocs per 100 µs round, want 0", n)
	}
	if got := *acquires - before; got < 100*90 || r.QueueLen() != 5 {
		t.Errorf("after warm-up: %d acquires in 101 rounds, %d queued; want ~100 a round and 5 queued", got, r.QueueLen())
	}
}
