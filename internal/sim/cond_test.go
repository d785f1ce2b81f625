package sim

import (
	"fmt"
	"testing"
	"time"
)

// Waiters resume at the instant they are woken, oldest first: Signal wakes
// one, Broadcast the rest, and a wake with nobody waiting is lost.
func TestCondWakesInWaitOrderAtTheWakingInstant(t *testing.T) {
	e := NewEngine()
	var c Cond
	var log []string
	for i := range 3 {
		e.Go("w", func(p *Proc) {
			p.Wait(time.Duration(i) * time.Microsecond)
			c.Wait(p)
			log = append(log, fmt.Sprintf("w%d@%v", i, p.Now()))
		})
	}
	e.At(0, c.Broadcast) // nobody waits yet
	e.At(Time(7*time.Microsecond), c.Signal)
	e.At(Time(9*time.Microsecond+3), c.Broadcast)
	e.Run()
	want := "[w0@7µs w1@9.003µs w2@9.003µs]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("woke %s, want %s", got, want)
	}
}

// A waiter whose condition is still false when it wakes waits again: the
// loop the Cond's callers write.
func TestCondWaitLoopRetests(t *testing.T) {
	e := NewEngine()
	var c Cond
	n := 0
	var at Time
	e.Go("waiter", func(p *Proc) {
		for n < 3 {
			c.Wait(p)
		}
		at = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		for range 3 {
			p.Wait(5 * time.Microsecond)
			n++
			c.Broadcast()
		}
	})
	e.Run()
	if at != Time(15*time.Microsecond) {
		t.Fatalf("resumed at %v, want 15µs", at)
	}
}

// A warm Cond allocates nothing per wait and wake.
func TestCondAllocatesNothing(t *testing.T) {
	e := NewEngine()
	var c Cond
	e.Go("waiter", func(p *Proc) {
		for {
			c.Wait(p)
		}
	})
	var tick func()
	tick = func() {
		c.Signal()
		e.After(3*time.Microsecond, tick)
	}
	e.After(0, tick)
	round := func() { e.RunUntil(e.Now().Add(100 * time.Microsecond)) }
	for i := 0; i < 400; i++ { // a full lap of the wheel, which allocates each slot once
		round()
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("%v allocs per 33 wake-ups, want 0", n)
	}
	e.Shutdown()
}
