package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// smokeScale shrinks every workload to about a fiftieth, so the whole file
// runs in a few seconds.
const smokeScale = 0.02

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// signed lists the metrics that are differences and may be negative.
var signed = map[string]bool{"obs.metrics_overhead_frac": true, "obs.hist_p99_err_frac": true}

func TestCatalogueLimits(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not of the allowed form", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: direction %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside 0..0.25", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, in step with the catalogue the program prints from.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: rationale must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (bounded && g.Bound != d.Bound) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd, true)
	same("per-layer", doc.PerLayer, perLayer, false)
}

// TestWorkloadsSmoke runs every workload small, plain and traced, and checks
// that each emits every metric of the catalogue as a usable number, that the
// traced repetition reproduces the plain one's virtual clock, and that the
// program decorator's span forest is well formed.
func TestWorkloadsSmoke(t *testing.T) {
	iso := isolatedLayers(smokeScale * 4)
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			res := measure(wl, 7, 0, smokeScale, 1, true)
			for _, p := range res.problems {
				t.Errorf("plain repetition: %s", p)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			var out bytes.Buffer
			if !writeResult(&out, endToEnd, res.e2e, res.correct(), res.attempted, res.failed) {
				t.Errorf("end-to-end result line not correct: %s", out.String())
			}
			for _, d := range endToEnd {
				if v := res.e2e[d.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v, want a positive finite number", d.Name, v)
				}
			}

			layers, spans := traceRep(wl, 7, smokeScale, res)
			for _, p := range res.problems {
				t.Errorf("traced repetition: %s", p)
			}
			for k, v := range iso {
				layers[k] = v
			}
			for _, d := range perLayer {
				v, ok := layers[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (v < 0 && !signed[d.Name]) {
					t.Errorf("per-layer %s = %v (present %v), want a finite non-negative number", d.Name, v, ok)
				}
			}
			if len(spans) == 0 {
				t.Error("traced repetition recorded no spans")
			}
			if err := checkSpans(spans); err != nil {
				t.Error(err)
			}
			programs := 0
			for _, s := range spans {
				if s.Parent >= 0 {
					programs++
				}
			}
			if wl.name != "ftl_churn" && programs == 0 {
				t.Error("no program span under any phase span")
			}
			if wl.name == "ftl_churn" && layers["apps.host_share"] != 0 {
				t.Errorf("ftl_churn runs no application kernel, yet apps.host_share = %v", layers["apps.host_share"])
			}
		})
	}
}

func TestCheckSpansRejectsEscapingChild(t *testing.T) {
	ok := []span{
		{ID: 0, Parent: -1, Name: "phase", HostNS: [2]int64{0, 100}, SimNS: [2]int64{0, 50}},
		{ID: 1, Parent: 0, Name: "grep", HostNS: [2]int64{10, 90}, SimNS: [2]int64{5, 45}},
	}
	if err := checkSpans(ok); err != nil {
		t.Errorf("well-formed forest rejected: %v", err)
	}
	bad := append([]span(nil), ok...)
	bad[1].SimNS[1] = 60
	if checkSpans(bad) == nil {
		t.Error("a child ending after its parent on the virtual clock was accepted")
	}
}

func TestQuantileIsAnOrderStatistic(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := quantile(xs, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, _ := quantile(xs, 0.5); v != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", v)
	}
}

// spin burns CPU where the profile can see it.
func spin(d time.Duration) (n uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			n = n*6364136223846793005 + 1442695040888963407
		}
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.ns
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				found = true
			}
		}
	}
	if !found || total < int64(100*time.Millisecond) {
		t.Errorf("%d samples covering %v, spin on a stack: %v", len(samples), time.Duration(total), found)
	}
}

func TestHostLayer(t *testing.T) {
	cases := []struct {
		stack          []string
		layer, program string
	}{
		{[]string{"runtime.memmove", "compstor/internal/apps/gzipx.(*deflater).emit", "compstor/internal/apps/gzipx.Compress",
			"compstor/internal/apps/gzipx.Gzip.Run", "main.spanProgram.Run", "compstor/internal/isps.(*Subsystem).Spawn"}, "apps/gzipx", "gzip"},
		{[]string{"compstor/internal/ftl.(*FTL).ReadPage", "compstor/internal/minfs.(*File).Read",
			"compstor/internal/apps/grepx.Grep.Run"}, "ftl", ""},
		{[]string{"compstor/internal/apps/coreutils.countStream", "compstor/internal/apps/coreutils.WC.Run"}, "apps/coreutils", "coreutils"},
		{[]string{"runtime.gcBgMarkWorker"}, "other", ""},
	}
	for _, c := range cases {
		if l, p := hostLayer(c.stack); l != c.layer || p != c.program {
			t.Errorf("hostLayer(%v) = %q, %q; want %q, %q", c.stack[0], l, p, c.layer, c.program)
		}
	}
}
