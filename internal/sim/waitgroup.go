package sim

// WaitGroup joins forked simulated processes: a parent Adds before forking,
// children call Done, and the parent blocks in Wait until the count drains.
type WaitGroup struct {
	n       int
	drained Cond
}

// Add increments the outstanding count.
func (wg *WaitGroup) Add(n int) {
	if n < 0 {
		panic("sim: negative WaitGroup add")
	}
	wg.n += n
}

// Done decrements the count and wakes the waiters when it reaches zero.
func (wg *WaitGroup) Done() {
	if wg.n <= 0 {
		panic("sim: WaitGroup Done without Add")
	}
	if wg.n--; wg.n == 0 {
		wg.drained.Broadcast()
	}
}

// Wait blocks the process until the count reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.n > 0 {
		wg.drained.Wait(p)
	}
}
