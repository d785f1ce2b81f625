package obs

import (
	"fmt"
	"io"
	"sort"
	"time"

	"compstor/internal/trace"
)

// EnableWallProfile turns on wall-clock capture for spans: every span
// records the host nanoseconds elapsed between Begin and End, the Chrome
// trace export gains a per-span "wall_us" argument (a host-CPU view next
// to the virtual-time one), and WallProfile can attribute wall time to
// span labels. Requires EnableTrace for any span to exist.
//
// Wall capture makes the trace export host-dependent — never byte-compare
// traces produced with it. The sim-time fields remain deterministic.
func (o *Obs) EnableWallProfile() {
	if o == nil {
		return
	}
	o.shared.tracer.wall = true
	o.shared.tracer.wallBase = time.Now()
}

// WallProfileEntry aggregates the completed spans sharing one label.
//
// WallNS is *gross* wall time: the engine runs exactly one process at a
// time, so the wall interval of a span that blocks (on a resource, a
// mailbox, virtual time) also contains the host work of whatever
// interleaved in between. It answers "while this phase was open, where did
// the host's seconds go" — a ranking signal for profiling, not an exact
// self-time; pair it with -cpuprofile (the bench binary labels samples per
// experiment via pprof.Labels) for instruction-level attribution.
type WallProfileEntry struct {
	Name   string
	Count  int64
	SimNS  int64
	WallNS int64
}

// WallProfile returns the top-n span labels by gross wall time (n <= 0
// returns all), aggregated over every completed span in the shared tracer.
// Empty unless EnableTrace and EnableWallProfile are both on.
func (o *Obs) WallProfile(n int) []WallProfileEntry {
	if o == nil || !o.shared.tracer.wall {
		return nil
	}
	byName := make(map[string]*WallProfileEntry)
	var order []string
	for _, sp := range o.shared.tracer.spans {
		e := byName[sp.name]
		if e == nil {
			e = &WallProfileEntry{Name: sp.name}
			byName[sp.name] = e
			order = append(order, sp.name)
		}
		e.Count++
		e.SimNS += int64(sp.end) - int64(sp.begin)
		e.WallNS += sp.wallNS
	}
	out := make([]WallProfileEntry, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallNS > out[j].WallNS })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// RenderWallProfile writes the wall profile as a table: span label, span
// count, total virtual time, and gross wall time with its share of the
// largest entry.
func RenderWallProfile(w io.Writer, title string, entries []WallProfileEntry) {
	if len(entries) == 0 {
		return
	}
	var top int64
	for _, e := range entries {
		if e.WallNS > top {
			top = e.WallNS
		}
	}
	t := trace.NewTable(title, "span", "count", "sim time", "gross wall", "of top")
	for _, e := range entries {
		share := 0.0
		if top > 0 {
			share = float64(e.WallNS) / float64(top) * 100
		}
		t.AddRow(e.Name, e.Count,
			time.Duration(e.SimNS).Round(time.Microsecond).String(),
			time.Duration(e.WallNS).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", share))
	}
	t.Render(w)
}
