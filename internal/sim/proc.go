//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: model code whose execution is interleaved
// with the engine so that exactly one process (or event callback) runs at a
// time. Model code inside a process advances virtual time with Wait, blocks
// on resources with Acquire/Transfer/Recv, and never needs locks.
//
// A Proc is backed by a pooled worker coroutine (see worker below). Pure
// delays on untraced procs complete inline on the engine side without
// switching at all; the worker is only involved when the proc genuinely has
// to give way to another event.
//
// A Proc must only call its blocking methods from its own body function.
type Proc struct {
	eng       *Engine
	name      string
	w         *worker
	body      func(p *Proc)
	pendingFn func() Time // engine-side continuation armed by WaitFn
	done      bool
	obsCtx    any
}

// worker is a pooled runtime coroutine (iter.Pull) executing proc bodies:
// next switches from the engine into the coroutine, yield switches back, and
// neither goes through the goroutine scheduler. When a body returns, the
// coroutine yields at the top of its loop and the engine rebinds it to the
// next Go instead of creating a fresh one — this is what keeps the
// goroutine count near the number of concurrently live procs. A panic (or
// runtime.Goexit) in a body surfaces from next, i.e. from Engine.Run on the
// caller's goroutine.
type worker struct {
	p       *Proc
	next    func() (struct{}, bool)
	yield   func(struct{}) bool // false once stop was called: unwind
	stop    func()
	scratch []byte // Scratch's memory, handed from each proc to the worker's next
}

// killedProc is the panic payload Shutdown uses to unwind parked procs. It
// is the only panic the worker recovers; real model panics propagate.
type killedProc struct{}

// newWorker creates an idle worker. The coroutine is run up to its first
// yield at once: iter.Pull allocates on the first switch, which would
// otherwise land on a proc's first step inside a measured run, and idle then
// means one thing — parked in the loop's yield, which returns false when
// Shutdown stops the worker.
func newWorker(e *Engine) *worker {
	w := &worker{}
	w.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for yield(struct{}{}) {
			p := w.p
			if w.runBody(p) {
				return
			}
			p.done = true
		}
	})
	w.next()
	e.allW = append(e.allW, w)
	return w
}

func (w *worker) runBody(p *Proc) (killed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedProc); ok {
				killed = true
				return
			}
			panic(r)
		}
	}()
	p.body(p)
	return false
}

// Go starts a new simulated process executing body. The process begins at
// the current virtual time (after already-scheduled events at that time).
// The name is used in diagnostics only.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Go after Shutdown")
	}
	p := &Proc{eng: e, name: name, body: body}
	if a := e.acct; a != nil {
		a.procsStarted++
	}
	var w *worker
	if n := len(e.freeW); n > 0 {
		w = e.freeW[n-1]
		e.freeW[n-1] = nil
		e.freeW = e.freeW[:n-1]
	} else {
		w = newWorker(e)
	}
	w.p = p
	p.w = w
	e.schedule(e.now, p, nil)
	return p
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// ObsCtx returns the process's observability context, an opaque value owned
// by the obs package (the currently open span). The sim kernel never
// interprets it; it exists so tracers can follow a request across blocking
// calls without sim importing obs.
func (p *Proc) ObsCtx() any { return p.obsCtx }

// SetObsCtx replaces the process's observability context; obs calls it as
// a span opens and closes. A child started with Go or Fork inherits its
// spawner's context already.
func (p *Proc) SetObsCtx(v any) { p.obsCtx = v }

// Scratch returns n bytes of arbitrary contents that are p's until its next
// Scratch call or its return. The memory stays with p's worker, which hands
// it to the next process it runs: a process that reads into scratch one
// buffer at a time allocates nothing once the worker holds the largest n.
func (p *Proc) Scratch(n int) []byte {
	w := p.w
	if cap(w.scratch) < n {
		w.scratch = make([]byte, n)
	}
	return w.scratch[:n]
}

// Go starts a child process executing body, as Engine.Go does, in p's
// observability context: the spans the child opens parent under the span p
// has open. Spawns with no spawner process use Engine.Go.
func (p *Proc) Go(name string, body func(c *Proc)) *Proc {
	c := p.eng.Go(name, body)
	c.obsCtx = p.obsCtx
	return c
}

// Fork starts n children with Go in index order, child i named name(i) and
// running body(c, i), and blocks p until every one of them has returned.
// With n == 0 it returns without parking.
func (p *Proc) Fork(n int, name func(i int) string, body func(c *Proc, i int)) {
	var wg WaitGroup
	wg.Add(n)
	for i := range n {
		p.Go(name(i), func(c *Proc) {
			defer wg.Done()
			body(c, i)
		})
	}
	wg.Wait(p)
}

// stepProc switches into the process's worker coroutine and returns when it
// blocks or finishes. It runs on the engine side, inside an event dispatch.
func (e *Engine) stepProc(p *Proc) {
	if p.done {
		panic(fmt.Sprintf("sim: process %q resumed after completion", p.name))
	}
	if a := e.acct; a != nil {
		a.procSwitches++
	}
	w := p.w
	w.next()
	if p.done {
		// Body returned: unbind and recycle the worker for the next Go.
		w.p = nil
		p.w = nil
		p.body = nil
		e.freeW = append(e.freeW, w)
	}
}

// park yields control back to the engine without scheduling a resumption.
// Something else must later call p.unpark (or schedule a resume) or the
// process sleeps forever.
func (p *Proc) park() {
	if !p.w.yield(struct{}{}) {
		panic(killedProc{}) // Shutdown: unwind through the body's defers
	}
}

// unpark schedules the process to resume at the current virtual time. It
// must be called from engine context (an event callback or another process)
// while p is parked.
func (p *Proc) unpark() {
	p.eng.schedule(p.eng.now, p, nil)
}

// Wait advances the process's virtual time by d. Other events and processes
// run in the meantime.
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		panic("sim: negative wait")
	}
	p.waitUntil(p.eng.now.Add(d))
}

// WaitUntil sleeps the process until virtual time t. If t is in the past it
// returns immediately (yielding once).
func (p *Proc) WaitUntil(t Time) {
	p.waitUntil(max(t, p.eng.now))
}

func (p *Proc) waitUntil(t Time) {
	e := p.eng
	if e.canInline(t) {
		e.inlineAdvance(p, t)
		return
	}
	e.schedule(t, p, nil)
	p.park()
}

// WaitFn advances the process by d, runs fn in engine context at that
// instant, and continues at the Time fn returns (>= that instant; returning
// it exactly resumes the proc within the same event). It exists for model
// hot paths whose "work" between two waits is pure bookkeeping — the flash
// die release + bus hand-off, for example — collapsing wait/compute/wait
// into at most one coroutine switch (zero when both hops inline). fn must
// not call blocking Proc methods.
func (p *Proc) WaitFn(d Duration, fn func() Time) {
	if d < 0 {
		panic("sim: negative wait")
	}
	e := p.eng
	t := e.now.Add(d)
	if e.canInline(t) {
		e.inlineAdvance(p, t)
		done := fn()
		switch {
		case done == e.now:
			return
		case done < e.now:
			panic("sim: WaitFn continuation returned a past time")
		}
		if e.canInline(done) {
			e.inlineAdvance(p, done)
			return
		}
		e.schedule(done, p, nil)
		p.park()
		return
	}
	p.pendingFn = fn
	e.schedule(t, p, nil)
	p.park()
}
