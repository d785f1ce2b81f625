package sim

// Link models a FIFO, store-and-forward bandwidth pipe such as a PCIe lane
// bundle, a flash channel bus, or a DRAM port. Transfers are serialised in
// arrival order; each occupies the pipe for size/bandwidth and completes
// after an additional propagation latency.
//
// The implementation is analytic: instead of a busy-server process it keeps
// the time at which the pipe frees up, which is exact for FIFO pipes and
// much faster than event-per-byte models.
type Link struct {
	eng      *Engine
	name     string
	bps      float64 // bytes per second
	latency  Duration
	freeAt   Time
	bytes    int64
	onActive func(d Duration)             // optional energy hook: pipe busy for d
	onBusy   func(start Time, d Duration) // optional utilisation-timeline hook
}

// NewLink creates a pipe with the given bandwidth (bytes/second) and
// propagation latency.
func NewLink(eng *Engine, name string, bytesPerSec float64, latency Duration) *Link {
	if bytesPerSec <= 0 {
		panic("sim: non-positive link bandwidth")
	}
	if latency < 0 {
		panic("sim: negative link latency")
	}
	return &Link{eng: eng, name: name, bps: bytesPerSec, latency: latency}
}

// SetOnActive installs a hook invoked with each transfer's occupancy time,
// used for energy accounting.
func (l *Link) SetOnActive(fn func(d Duration)) { l.onActive = fn }

// SetBusyHook installs a hook invoked with each transfer's occupancy
// interval (start time and serialisation duration), used for utilisation
// timelines. Independent of SetOnActive so energy accounting and
// observability can coexist.
func (l *Link) SetBusyHook(fn func(start Time, d Duration)) { l.onBusy = fn }

// Transfer moves n bytes through the pipe, blocking the process for queueing
// delay + serialisation time + latency. Zero-byte transfers incur only the
// latency.
func (l *Link) Transfer(p *Proc, n int64) {
	p.WaitUntil(l.TransferTime(n))
}

// TransferTime books an n-byte transfer arriving now and returns its
// completion time without blocking. It is the engine-context form of
// Transfer, for callers (e.g. Proc.WaitFn continuations) that fold the
// pipe's occupancy into a larger wait. The pipe's state advances exactly as
// if a process had called Transfer at this instant.
func (l *Link) TransferTime(n int64) Time {
	if n < 0 {
		panic("sim: negative transfer size")
	}
	start := max(l.eng.Now(), l.freeAt)
	ser := DurationFor(n, l.bps)
	l.freeAt = start.Add(ser)
	done := l.freeAt.Add(l.latency)
	l.bytes += n
	if l.onActive != nil && ser > 0 {
		l.onActive(ser)
	}
	if l.onBusy != nil && ser > 0 {
		l.onBusy(start, ser)
	}
	return done
}

// Bytes returns the total payload bytes moved through the pipe.
func (l *Link) Bytes() int64 { return l.bytes }
