package sim

import "time"

// Duration aliases time.Duration so model packages can use sim.Duration
// without importing time.
type Duration = time.Duration

// Semaphore is a counted semaphore with FIFO granting. It is the basic
// mutual-exclusion and admission-control primitive for simulated processes.
// Engine-context code queues in the same FIFO through AcquireFn.
type Semaphore struct {
	eng       *Engine
	tokens    int
	cap       int
	acquires  int64
	waiters   []semWaiter // value-typed: no per-Acquire allocation
	queueTime func(wait Duration)
}

// semWaiter is a parked process (p), or a callback (fn, arrival).
type semWaiter struct {
	p  *Proc
	fn func()
	n  int
	t0 Time
}

// NewSemaphore creates a semaphore holding n tokens (and capacity n).
func NewSemaphore(eng *Engine, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore size")
	}
	return &Semaphore{eng: eng, tokens: n, cap: n}
}

// tryAcquire takes n tokens if they are free and nobody queues (FIFO: a
// newcomer goes behind existing waiters even if tokens are free). Acquiring
// more than the semaphore's capacity panics, since it would block forever.
func (s *Semaphore) tryAcquire(n int) bool {
	if n <= 0 {
		panic("sim: non-positive acquire")
	}
	if n > s.cap {
		panic("sim: acquire exceeds semaphore capacity")
	}
	if len(s.waiters) > 0 || s.tokens < n {
		return false
	}
	s.tokens -= n
	s.acquired(0)
	return true
}

// acquired counts one acquisition and feeds the queue-time hook.
func (s *Semaphore) acquired(wait Duration) {
	s.acquires++
	if s.queueTime != nil {
		s.queueTime(wait)
	}
}

// Acquire takes n tokens, blocking the process in FIFO order until they are
// available.
func (s *Semaphore) Acquire(p *Proc, n int) {
	if s.tryAcquire(n) {
		return
	}
	s.waiters = append(s.waiters, semWaiter{p: p, n: n})
	t0 := s.eng.Now()
	p.park()
	s.acquired(s.eng.Now().Sub(t0))
}

// AcquireFn is Acquire for engine-context code, which has no process to
// park: fn runs once the n tokens are held — inside the call if they are free
// and nobody queues, otherwise as an event of its own, at the instant a
// Release grants it (which feeds the count and the hook). That is the event a
// parked process would have resumed in, from the same FIFO, so swapping a
// process for a callback moves nothing in the dispatch order.
func (s *Semaphore) AcquireFn(n int, fn func()) {
	if s.tryAcquire(n) {
		fn()
		return
	}
	s.waiters = append(s.waiters, semWaiter{fn: fn, n: n, t0: s.eng.Now()})
}

// SetQueueTimeHook installs a hook invoked on every successful Acquire with
// the virtual time the acquirer spent queued (zero for immediate grants).
// Histogram-friendly: immediate grants are reported too, so quantiles over
// the hook's stream reflect the full arrival population.
func (s *Semaphore) SetQueueTimeHook(fn func(wait Duration)) { s.queueTime = fn }

// Release returns n tokens and wakes any waiters that can now proceed.
func (s *Semaphore) Release(n int) {
	if n <= 0 {
		panic("sim: non-positive release")
	}
	s.tokens += n
	if s.tokens > s.cap {
		s.cap = s.tokens // semaphore grew; allow it but track capacity
	}
	for len(s.waiters) > 0 && s.tokens >= s.waiters[0].n {
		w := popFront(&s.waiters)
		s.tokens -= w.n
		if w.p != nil {
			w.p.unpark()
			continue
		}
		s.acquired(s.eng.now.Sub(w.t0))
		s.eng.schedule(s.eng.now, nil, w.fn)
	}
}

// popFront removes the head of a FIFO by shifting down and zeroing the
// vacated slot: the backing array stays anchored, so a long-lived queue stops
// allocating at its high-water depth and pins nothing that has left it.
// Queues here are a handful of entries, so the copy is cheaper than the
// slice-forward idiom's reallocation churn.
func popFront[T any](q *[]T) T {
	s := *q
	head := s[0]
	var zero T
	copy(s, s[1:])
	s[len(s)-1] = zero
	*q = s[:len(s)-1]
	return head
}

// Available returns the number of free tokens.
func (s *Semaphore) Available() int { return s.tokens }

// QueueLen returns the number of blocked acquirers.
func (s *Semaphore) QueueLen() int { return len(s.waiters) }

// Resource is a multi-server station: up to Capacity processes hold it at
// once; others queue FIFO. Use measures utilisation for reporting and
// energy accounting.
type Resource struct {
	sem      *Semaphore
	capacity int
	busyNS   int64 // accumulated busy time across all servers
	eng      *Engine
	onBusy   func(start Time, d Duration)
}

// NewResource creates a station with the given number of servers.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: non-positive resource capacity")
	}
	return &Resource{sem: NewSemaphore(eng, capacity), capacity: capacity, eng: eng}
}

// Capacity returns the number of servers.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of servers currently held.
func (r *Resource) InUse() int { return r.capacity - r.sem.Available() }

// QueueLen returns the number of processes waiting for a server.
func (r *Resource) QueueLen() int { return r.sem.QueueLen() }

// Acquire claims one server, blocking FIFO until one is free.
func (r *Resource) Acquire(p *Proc) { r.sem.Acquire(p, 1) }

// AcquireFn claims one server for engine-context code; see Semaphore.AcquireFn.
func (r *Resource) AcquireFn(fn func()) { r.sem.AcquireFn(1, fn) }

// Release frees one server.
func (r *Resource) Release() { r.sem.Release(1) }

// Use claims a server, holds it for d of virtual time, and releases it.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Wait(d)
	r.addBusy(d)
	r.Release()
}

// BusyTime returns the total server-busy time accumulated through Use.
func (r *Resource) BusyTime() Duration { return Duration(r.busyNS) }

// AddBusy records externally-managed busy time (for callers that use
// Acquire/Release directly but still want utilisation accounted). Callers
// report a busy period immediately after waiting it out, so the interval is
// taken to end at the current virtual time.
func (r *Resource) AddBusy(d Duration) { r.addBusy(d) }

func (r *Resource) addBusy(d Duration) {
	r.busyNS += int64(d)
	if r.onBusy != nil && d > 0 {
		r.onBusy(r.eng.Now().Add(-d), d)
	}
}

// SetBusyHook installs a hook invoked with each busy interval's start time
// and duration, used for utilisation timelines.
func (r *Resource) SetBusyHook(fn func(start Time, d Duration)) { r.onBusy = fn }

// SetQueueTimeHook installs a hook invoked on every successful Acquire with
// the virtual time spent queued for a server (zero for immediate grants).
func (r *Resource) SetQueueTimeHook(fn func(wait Duration)) { r.sem.SetQueueTimeHook(fn) }

// Acquires returns the number of successful acquisitions.
func (r *Resource) Acquires() int64 { return r.sem.acquires }

// Utilization returns busy time divided by (elapsed * capacity), in [0,1],
// measured at the current virtual time.
func (r *Resource) Utilization() float64 {
	el := r.eng.Now().Seconds() * float64(r.capacity)
	if el <= 0 {
		return 0
	}
	u := (Duration(r.busyNS)).Seconds() / el
	if u > 1 {
		u = 1
	}
	return u
}
