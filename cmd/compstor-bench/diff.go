package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"sort"

	"compstor/internal/obs"
	"compstor/internal/trace"
)

// diffTop is how many movers -diff prints.
const diffTop = 25

// metrics is a snapshot flattened into named numbers: every counter, each
// histogram's count and quantiles, and each timeline's mean, whose window
// count decides whether two means are comparable.
type metrics struct {
	vals    map[string]float64
	windows map[string]int
}

func loadMetrics(path string) (metrics, error) {
	var s obs.Snapshot
	m := metrics{map[string]float64{}, map[string]int{}}
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &s)
	}
	if err == nil && s.Schema != obs.SchemaVersion {
		err = fmt.Errorf("schema %q, want %q", s.Schema, obs.SchemaVersion)
	}
	if err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	for _, c := range s.Counters {
		m.vals[c.Name] = float64(c.Value)
	}
	for _, h := range s.Histograms {
		m.vals[h.Name+".count"] = float64(h.Count)
		m.vals[h.Name+".p50_ns"] = float64(h.P50NS)
		m.vals[h.Name+".p95_ns"] = float64(h.P95NS)
		m.vals[h.Name+".p99_ns"] = float64(h.P99NS)
	}
	for _, tl := range s.Timelines {
		m.vals[tl.Name+".mean"] = tl.Mean
		m.windows[tl.Name+".mean"] = len(tl.Busy)
	}
	return m, nil
}

// diffSnapshots prints the metrics that moved most between two
// BENCH_<name>.json files, ranked by relative change, then the metrics
// present in one file only. A timeline mean covers only its populated
// windows, so two means over different window counts are listed apart
// instead of ranked: the mean can rise while the work it measures falls.
func diffSnapshots(w io.Writer, pathA, pathB string) error {
	a, err := loadMetrics(pathA)
	if err != nil {
		return err
	}
	b, err := loadMetrics(pathB)
	if err != nil {
		return err
	}
	type mover struct {
		name, change string
		a, b, rank   float64 // rank: relative change, +Inf up from zero
	}
	var movers []mover
	var unranked, onlyA, onlyB []string
	same := 0
	names := maps.Clone(a.vals)
	maps.Copy(names, b.vals)
	for name := range names {
		x, inA := a.vals[name]
		y, inB := b.vals[name]
		switch {
		case !inA:
			onlyB = append(onlyB, name)
		case !inB:
			onlyA = append(onlyA, name)
		case x == y:
			same++
		case a.windows[name] != b.windows[name]:
			unranked = append(unranked, fmt.Sprintf("%s %.3g → %.3g over %d → %d windows", name, x, y, a.windows[name], b.windows[name]))
		case x == 0:
			movers = append(movers, mover{name, "from 0", x, y, math.Inf(1)})
		default:
			movers = append(movers, mover{name, fmt.Sprintf("%+.1f%%", 100*(y-x)/math.Abs(x)), x, y, math.Abs(y-x) / math.Abs(x)})
		}
	}
	sort.Slice(movers, func(i, j int) bool {
		if movers[i].rank != movers[j].rank {
			return movers[i].rank > movers[j].rank
		}
		return movers[i].name < movers[j].name
	})
	fmt.Fprintf(w, "%s → %s: %d metrics moved, %d unchanged, %d only in a, %d only in b\n",
		pathA, pathB, len(movers)+len(unranked), same, len(onlyA), len(onlyB))
	top := movers[:min(diffTop, len(movers))]
	t := trace.NewTable(fmt.Sprintf("Top %d movers", len(top)), "metric", "a", "b", "change")
	for _, m := range top {
		t.AddRow(m.name, m.a, m.b, m.change)
	}
	t.Render(w)
	for _, l := range []struct {
		title string
		names []string
	}{
		{"timeline means over different window counts (not ranked)", unranked},
		{"only in a", onlyA},
		{"only in b", onlyB},
	} {
		if len(l.names) == 0 {
			continue
		}
		sort.Strings(l.names)
		fmt.Fprintf(w, "%d %s:\n", len(l.names), l.title)
		for _, n := range l.names[:min(diffTop, len(l.names))] {
			fmt.Fprintln(w, "  "+n)
		}
	}
	return nil
}
