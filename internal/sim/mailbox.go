package sim

// Mailbox is an unbounded FIFO queue connecting simulated processes:
// producers Put without blocking; consumers Recv, blocking until an item is
// available. It feeds daemon-style processes such as the minfs write-back
// flushers and the serving layer's dispatch workers.
type Mailbox[T any] struct {
	items  fifo[T]
	recv   Cond // receivers waiting for an item
	closed bool
}

// NewMailbox creates an empty mailbox.
func NewMailbox[T any]() *Mailbox[T] { return &Mailbox[T]{} }

// Put enqueues an item and wakes one waiting receiver, if any. Put into a
// closed mailbox panics.
func (m *Mailbox[T]) Put(item T) {
	if m.closed {
		panic("sim: Put on closed mailbox")
	}
	m.items.push(item)
	m.recv.Signal()
}

// Recv dequeues the oldest item, blocking the process until one is
// available. If the mailbox is closed and empty, Recv returns the zero
// value and ok=false.
func (m *Mailbox[T]) Recv(p *Proc) (item T, ok bool) {
	for m.items.len() == 0 {
		if m.closed {
			var zero T
			return zero, false
		}
		m.recv.Wait(p)
	}
	return m.items.pop(), true
}

// Close marks the mailbox closed and wakes all blocked receivers, which
// will observe ok=false once the queue drains.
func (m *Mailbox[T]) Close() {
	m.closed = true
	m.recv.Broadcast()
}
