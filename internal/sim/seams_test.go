package sim

// Helpers only the tests call; production code does not.

// TryRecv dequeues without blocking; ok is false if the mailbox is empty.
func (m *Mailbox[T]) TryRecv() (item T, ok bool) {
	if m.items.len() == 0 {
		var zero T
		return zero, false
	}
	return m.items.pop(), true
}

// Delay blocks the process for the link's propagation latency only, as for
// a doorbell write or small control message.
func (l *Link) Delay(p *Proc) { p.Wait(l.latency) }

// Step executes the single earliest pending event and reports whether one
// was executed.
func (e *Engine) Step() bool {
	if !e.q.fill(e.now) {
		return false
	}
	e.dispatchNext()
	return true
}

// Available returns the number of free tokens.
func (s *Semaphore) Available() int { return s.tokens }

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return m.items.len() }
