package obs

import "compstor/internal/sim"

// maxWindows bounds a timeline's memory: when a run outlives the budget the
// window width doubles and adjacent buckets merge, trading resolution for
// bounded size. The coarsening is a pure function of the busy intervals, so
// determinism is preserved.
const maxWindows = 2048

// Timeline accumulates busy intervals into fixed-width virtual-time windows
// and reports per-window busy fractions. It is push-based on purpose: a
// polling sampler would keep the event queue non-empty and Engine.Run would
// never drain.
type Timeline struct {
	window   sim.Duration
	capacity int // busy-fraction divisor (server count for resources)
	busy     []int64
	totalNS  int64
	endT     sim.Time // latest interval end seen
}

// Add records a busy interval, spreading it across the windows it touches.
// Nil-safe.
func (tl *Timeline) Add(start sim.Time, d sim.Duration) {
	if tl == nil || d <= 0 {
		return
	}
	if start < 0 {
		d += sim.Duration(start)
		start = 0
		if d <= 0 {
			return
		}
	}
	end := start.Add(d)
	tl.endT = max(tl.endT, end)
	tl.totalNS += int64(d)
	for t := int64(start); t < int64(end); {
		for t/int64(tl.window) >= maxWindows {
			tl.coarsen()
		}
		w := int64(tl.window)
		i := t / w
		chunk := min(int64(end), (i+1)*w) - t
		for int(i) >= len(tl.busy) {
			tl.busy = append(tl.busy, 0)
		}
		tl.busy[i] += chunk
		t += chunk
	}
}

// coarsen merges adjacent window pairs and doubles the window width.
func (tl *Timeline) coarsen() {
	half := make([]int64, (len(tl.busy)+1)/2)
	for j, v := range tl.busy {
		half[j/2] += v
	}
	tl.busy = half
	tl.window *= 2
}

// Window returns the current window width.
func (tl *Timeline) Window() sim.Duration {
	if tl == nil {
		return 0
	}
	return tl.window
}

// Fractions returns the per-window busy fraction in [0,1].
func (tl *Timeline) Fractions() []float64 {
	if tl == nil {
		return nil
	}
	out := make([]float64, len(tl.busy))
	den := float64(tl.window) * float64(tl.capacity)
	for i, b := range tl.busy {
		out[i] = min(float64(b)/den, 1)
	}
	return out
}

// Mean returns total busy time over total elapsed time (to the last
// interval end), normalised by capacity.
func (tl *Timeline) Mean() float64 {
	if tl == nil || tl.endT <= 0 {
		return 0
	}
	return min(float64(tl.totalNS)/(float64(tl.endT)*float64(tl.capacity)), 1)
}
