package sim

// Helpers only the tests call; production code does not.

// TryRecv dequeues without blocking; ok is false if the mailbox is empty.
func (m *Mailbox[T]) TryRecv() (item T, ok bool) {
	if len(m.items) == 0 {
		var zero T
		return zero, false
	}
	return popFront(&m.items), true
}

// Delay blocks the process for the link's propagation latency only, as for
// a doorbell write or small control message.
func (l *Link) Delay(p *Proc) { p.Wait(l.latency) }
