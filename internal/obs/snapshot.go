package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
)

// SchemaVersion identifies the snapshot JSON layout; bump on incompatible
// change. Consumers (and the CI schema test) match on it.
const SchemaVersion = "compstor/obs/v1"

// Snapshot is the stable, machine-readable form of a scope's metrics:
// everything is sorted by name and expressed in deterministic integer
// nanoseconds or floats, so identical seeds serialise to identical bytes.
type Snapshot struct {
	Schema     string          `json:"schema"`
	Name       string          `json:"name"`
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
	Timelines  []TimelineSnap  `json:"timelines"`
}

// CounterSnap is one counter's value.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is a gauge's value. No metric is a gauge; the empty list stays
// in the schema until its next version.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSnap is one histogram's summary, durations in nanoseconds.
type HistogramSnap struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	SumNS int64  `json:"sum_ns"`
	MinNS int64  `json:"min_ns"`
	MaxNS int64  `json:"max_ns"`
	P50NS int64  `json:"p50_ns"`
	P95NS int64  `json:"p95_ns"`
	P99NS int64  `json:"p99_ns"`
}

// TimelineSnap is one utilisation timeline: per-window busy fractions plus
// the run-wide mean.
type TimelineSnap struct {
	Name     string    `json:"name"`
	WindowNS int64     `json:"window_ns"`
	Mean     float64   `json:"mean"`
	Busy     []float64 `json:"busy"`
}

// Snapshot collects every metric and timeline under this scope's prefix,
// strips the prefix, and returns a stable struct. Engine-context only (see
// package doc); to snapshot mid-run, schedule the call as an engine event.
func (o *Obs) Snapshot(name string) Snapshot {
	s := Snapshot{
		Schema:     SchemaVersion,
		Name:       name,
		Counters:   []CounterSnap{},
		Gauges:     []GaugeSnap{},
		Histograms: []HistogramSnap{},
		Timelines:  []TimelineSnap{},
	}
	if o == nil {
		return s
	}
	r := o.shared
	keep := func(full string) (string, bool) {
		if !strings.HasPrefix(full, o.prefix) {
			return "", false
		}
		return full[len(o.prefix):], true
	}
	for _, full := range sortedKeys(r.counters) {
		if n, ok := keep(full); ok {
			s.Counters = append(s.Counters, CounterSnap{Name: n, Value: r.counters[full].Value()})
		}
	}
	for _, full := range sortedKeys(r.funcs) {
		if n, ok := keep(full); ok {
			s.Counters = append(s.Counters, CounterSnap{Name: n, Value: r.funcs[full]()})
		}
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for _, full := range sortedKeys(r.hists) {
		n, ok := keep(full)
		if !ok {
			continue
		}
		h := r.hists[full]
		s.Histograms = append(s.Histograms, HistogramSnap{
			Name:  n,
			Count: h.Count(),
			SumNS: int64(h.Sum()),
			MinNS: int64(h.Min()),
			MaxNS: int64(h.Max()),
			P50NS: int64(h.Quantile(0.50)),
			P95NS: int64(h.Quantile(0.95)),
			P99NS: int64(h.Quantile(0.99)),
		})
	}
	for _, full := range sortedKeys(r.timelines) {
		n, ok := keep(full)
		if !ok {
			continue
		}
		tl := r.timelines[full]
		s.Timelines = append(s.Timelines, TimelineSnap{
			Name:     n,
			WindowNS: int64(tl.Window()),
			Mean:     tl.Mean(),
			Busy:     tl.Fractions(),
		})
	}
	return s
}

// WriteJSON serialises the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
