package sim

// Cond is a list of processes waiting for what another process or event will
// bring about: an item, a page landing, a drain. Wait parks the caller; the
// code that ends the wait wakes waiters at that instant, oldest first, and
// they resume once it yields — re-testing their condition, if it can have
// changed again. The zero value is ready, and a Cond allocates only when its
// list outgrows its high-water length.
type Cond struct {
	waiters fifo[*Proc]
}

// Wait parks p until a Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(p)
	p.park()
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal() {
	if c.waiters.len() > 0 {
		c.waiters.pop().unpark()
	}
}

// Broadcast wakes every waiter, in wait order.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.waiters.pop().unpark()
	}
}
