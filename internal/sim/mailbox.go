package sim

// Mailbox is an unbounded FIFO queue connecting simulated processes:
// producers Put without blocking; consumers Recv, blocking until an item is
// available. It is the transport used for daemon-style processes such as
// the ISPS agent and the NVMe controller front-end.
type Mailbox[T any] struct {
	items   []T
	waiters []*Proc
	closed  bool
}

// NewMailbox creates an empty mailbox.
func NewMailbox[T any]() *Mailbox[T] { return &Mailbox[T]{} }

// Put enqueues an item and wakes one waiting receiver, if any. Put into a
// closed mailbox panics.
func (m *Mailbox[T]) Put(item T) {
	if m.closed {
		panic("sim: Put on closed mailbox")
	}
	m.items = append(m.items, item)
	if len(m.waiters) > 0 {
		popFront(&m.waiters).unpark()
	}
}

// Recv dequeues the oldest item, blocking the process until one is
// available. If the mailbox is closed and empty, Recv returns the zero
// value and ok=false.
func (m *Mailbox[T]) Recv(p *Proc) (item T, ok bool) {
	for len(m.items) == 0 {
		if m.closed {
			var zero T
			return zero, false
		}
		m.waiters = append(m.waiters, p)
		p.park()
	}
	return popFront(&m.items), true
}

// Close marks the mailbox closed and wakes all blocked receivers, which
// will observe ok=false once the queue drains.
func (m *Mailbox[T]) Close() {
	m.closed = true
	for _, w := range m.waiters {
		w.unpark()
	}
	m.waiters = nil
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) }
