package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The ring pops what a plain slice pops, through wrap-around and through
// growth while the ring is wrapped.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var q fifo[int]
	var ref []int
	grewWrapped := 0
	for op, next := 0, 0; op < 200_000; op++ {
		if rng.Intn(100) < 52 || len(ref) == 0 {
			if q.len() == len(q.ring) && q.head > 0 {
				grewWrapped++
			}
			q.push(next)
			ref = append(ref, next)
			next++
		} else {
			if got := q.front(); got != ref[0] {
				t.Fatalf("op %d: front %d, want %d", op, got, ref[0])
			}
			if got := q.pop(); got != ref[0] {
				t.Fatalf("op %d: pop %d, want %d", op, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.len() != len(ref) {
			t.Fatalf("op %d: len %d, want %d", op, q.len(), len(ref))
		}
	}
	if grewWrapped == 0 {
		t.Fatal("no push grew a wrapped ring")
	}
	for q.len() > 0 {
		q.pop()
	}
	for i, v := range q.ring {
		if v != 0 {
			t.Fatalf("slot %d still holds %d after draining", i, v)
		}
	}
}

// refMailbox and refSemaphore are Mailbox and Semaphore over plain slices
// popped from the front: the reference the ring-backed queues must match.
type refMailbox struct {
	items   []int
	waiters []*Proc
	closed  bool
}

func (m *refMailbox) Put(v int) {
	m.items = append(m.items, v)
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		w.unpark()
	}
}

func (m *refMailbox) Recv(p *Proc) (int, bool) {
	for len(m.items) == 0 {
		if m.closed {
			return 0, false
		}
		m.waiters = append(m.waiters, p)
		p.park()
	}
	v := m.items[0]
	m.items = m.items[1:]
	return v, true
}

func (m *refMailbox) Close() {
	m.closed = true
	for _, w := range m.waiters {
		w.unpark()
	}
	m.waiters = nil
}

type refSemaphore struct {
	eng     *Engine
	tokens  int
	waiters []semWaiter
}

func (s *refSemaphore) Acquire(p *Proc, n int) {
	if len(s.waiters) == 0 && s.tokens >= n {
		s.tokens -= n
		return
	}
	s.waiters = append(s.waiters, semWaiter{p: p, n: n})
	p.park()
}

func (s *refSemaphore) AcquireFn(n int, fn func()) {
	if len(s.waiters) == 0 && s.tokens >= n {
		s.tokens -= n
		fn()
		return
	}
	s.waiters = append(s.waiters, semWaiter{fn: fn, n: n})
}

func (s *refSemaphore) Release(n int) {
	s.tokens += n
	for len(s.waiters) > 0 && s.tokens >= s.waiters[0].n {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.tokens -= w.n
		if w.p != nil {
			w.p.unpark()
			continue
		}
		s.eng.schedule(s.eng.now, nil, w.fn)
	}
}

type mailboxUnderTest interface {
	Put(int)
	Recv(*Proc) (int, bool)
	Close()
}

type semaphoreUnderTest interface {
	Acquire(*Proc, int)
	AcquireFn(int, func())
	Release(int)
}

// queueScenario drives one mailbox and one semaphore through the random
// interleaving seed draws — bursts of Puts to several receivers, a Close at
// a random instant, processes and callbacks acquiring random token counts —
// and logs every delivery and grant with its instant. Draws made while the
// engine runs stay aligned between two runs exactly as long as their
// behaviour does.
func queueScenario(seed int64, build func(*Engine, int) (mailboxUnderTest, semaphoreUnderTest)) []string {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	defer e.Shutdown()
	tokens := 1 + rng.Intn(4)
	mb, sem := build(e, tokens)
	var log []string
	note := func(format string, args ...any) {
		log = append(log, e.Now().String()+" "+fmt.Sprintf(format, args...))
	}
	us := func() Duration { return Duration(rng.Intn(4)) * time.Microsecond }

	closed, next := false, 0
	for r, receivers := 0, 1+rng.Intn(6); r < receivers; r++ {
		e.Go("recv", func(p *Proc) {
			for {
				v, ok := mb.Recv(p)
				if !ok {
					note("r%d closed", r)
					return
				}
				note("r%d got %d", r, v)
				p.Wait(us())
			}
		})
	}
	for w, producers := 0, 1+rng.Intn(4); w < producers; w++ {
		e.Go("put", func(p *Proc) {
			for k := 0; k < 30; k++ {
				p.Wait(us())
				for b := rng.Intn(9); b > 0 && !closed; b-- {
					mb.Put(next)
					next++
				}
			}
		})
	}
	e.At(Time(20+rng.Intn(60))*Time(time.Microsecond), func() {
		closed = true
		mb.Close()
		note("close after %d puts", next)
	})

	for u, users := 0, 1+rng.Intn(6); u < users; u++ {
		e.Go("acq", func(p *Proc) {
			for k := 0; k < 20; k++ {
				p.Wait(us())
				n := 1 + rng.Intn(tokens)
				sem.Acquire(p, n)
				note("p%d holds %d", u, n)
				p.Wait(us())
				sem.Release(n)
			}
		})
	}
	for c, chains := 0, rng.Intn(6); c < chains; c++ {
		var acquire func(left int)
		acquire = func(left int) {
			n := 1 + rng.Intn(tokens)
			sem.AcquireFn(n, func() {
				note("c%d holds %d", c, n)
				e.After(us(), func() {
					sem.Release(n)
					if left > 0 {
						e.After(us(), func() { acquire(left - 1) })
					}
				})
			})
		}
		e.After(us(), func() { acquire(20) })
	}
	e.Run()
	return log
}

// Mailbox and Semaphore deliver and grant in exactly the order, and at
// exactly the instants, the plain-slice reference does.
func TestQueuesMatchPlainSliceReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		got := queueScenario(seed, func(e *Engine, tokens int) (mailboxUnderTest, semaphoreUnderTest) {
			return NewMailbox[int](), NewSemaphore(e, tokens)
		})
		want := queueScenario(seed, func(e *Engine, tokens int) (mailboxUnderTest, semaphoreUnderTest) {
			return &refMailbox{}, &refSemaphore{eng: e, tokens: tokens}
		})
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: %d vs %d log lines, first difference at line %d:\n got %q\nwant %q",
				seed, len(got), len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
	}
}

// A mailbox cycling at a steady depth of 10,000 — a write-back queue holding
// most of a staging budget — allocates nothing per Put and Recv.
func TestDeepMailboxCyclesWithoutAllocating(t *testing.T) {
	const depth = 10_000
	e := NewEngine()
	defer e.Shutdown()
	mb := NewMailbox[int]()
	e.Go("cycle", func(p *Proc) {
		for i := 0; i < depth; i++ {
			mb.Put(i)
		}
		next, want := depth, 0
		allocs := testing.AllocsPerRun(50_000, func() {
			mb.Put(next)
			next++
			if v, ok := mb.Recv(p); !ok || v != want {
				t.Errorf("Recv = %d, %v; want %d", v, ok, want)
			}
			want++
		})
		if allocs != 0 || mb.Len() != depth {
			t.Errorf("%v allocs per Put+Recv at depth %d, want 0", allocs, mb.Len())
		}
	})
	e.Run()
}
