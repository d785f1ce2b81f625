package sim

// fifo is the queue behind Mailbox, Semaphore and Cond: a ring over one array, O(1)
// at any depth (a write-back mailbox can hold a 16,384-page staging budget).
// A pop clears its slot and an emptied queue restarts at the array's front,
// so a long-lived queue pins nothing that has left it and allocates only
// past its high-water depth, growing as append grows a full slice.
type fifo[T any] struct {
	ring    []T   // len(ring) == cap(ring)
	head, n int32 // n entries from head, wrapping; int32 keeps a Mailbox within 80 bytes
}

func (q *fifo[T]) len() int { return int(q.n) }

// front returns the oldest entry of a non-empty queue.
func (q *fifo[T]) front() T { return q.ring[q.head] }

func (q *fifo[T]) push(v T) {
	if q.len() == len(q.ring) {
		// A new array, sized by append; unroll the ring into it oldest-first.
		grown := append(q.ring, v)
		copy(grown[copy(grown, q.ring[q.head:]):], q.ring[:q.head])
		q.ring, q.head = grown[:cap(grown)], 0
	}
	i := int(q.head) + q.len()
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = v
	q.n++
}

// pop removes and returns the oldest entry of a non-empty queue.
func (q *fifo[T]) pop() T {
	v := q.ring[q.head]
	var zero T
	q.ring[q.head] = zero
	q.n--
	if q.head++; q.n == 0 || int(q.head) == len(q.ring) {
		q.head = 0
	}
	return v
}
