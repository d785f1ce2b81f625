package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"compstor/internal/apps"
	"compstor/internal/apps/appset"
	"compstor/internal/core"
	"compstor/internal/obs"
	"compstor/internal/sim"
)

// workload is one benchmark workload: rep runs a single repetition on
// fresh systems built from r.seed and records its results on r.
type workload struct {
	name string
	why  string
	rep  func(r *rep)
}

// workloads is the benchmark's workload set; README.md says why each exists
// and which layers it bypasses.
var workloads = []workload{
	{"scan", "read-only in-situ scans over many small files and one big file per device: the device read path with cheap kernels", scanRep},
	{"batch_apps", "the paper's six applications in-situ and on the Xeon host (Fig 8): real compression and awk kernels, output files written through the FTL", batchRep},
	{"serve_mix", "open-loop three-tenant serving at frozen rates plus a fail-slow device: the only workload where serve and cluster policy do work", serveRep},
	{"ftl_churn", "random overwrites beside timed random reads on a nearly full conventional SSD: garbage collection with no ISPS and no application kernel", churnRep},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// phase says which host stopwatch is running.
type phase int

const (
	phaseOff      phase = iota // oracle checks and bookkeeping: not reported
	phaseSetup                 // input synthesis, system build, staging, warm-up
	phaseMeasured              // the measured region
)

// hostClock accumulates host wall time per phase and bytes allocated in
// the measured region. A repetition may enter and leave phases many times
// (one workload builds several systems); the totals are what is reported.
type hostClock struct {
	cur        phase
	since      time.Time
	ns         [3]int64
	allocStart uint64
	allocBytes uint64
	// onSwitch, when set, is told of every phase change (the tracer
	// profiles the measured region only).
	onSwitch func(from, to phase)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// enter closes the running phase and starts ph. It is called from plain Go
// code and from inside simulated processes alike: the engine runs one
// goroutine at a time, so host time is a single timeline either way.
func (h *hostClock) enter(ph phase) {
	if h.onSwitch != nil {
		defer h.onSwitch(h.cur, ph)
	}
	now := time.Now()
	if !h.since.IsZero() {
		h.ns[h.cur] += now.Sub(h.since).Nanoseconds()
	}
	if h.cur == phaseMeasured {
		h.allocBytes += totalAlloc() - h.allocStart
	}
	if ph == phaseMeasured {
		h.allocStart = totalAlloc()
	}
	h.cur = ph
	h.since = time.Now()
}

// rep is one repetition's inputs and results.
type rep struct {
	seed int64
	// scale shrinks every input size and request count; it is 1 from the
	// command line and small in the smoke test.
	scale float64
	// tr is non-nil in the traced repetition only.
	tr *tracer
	// detail is set in a traced run, for the instrumented repetition and
	// its plain reference alike: the workload then also measures whatever
	// feeds per-layer metrics only (serve_mix's extra load points).
	detail bool

	clock hostClock
	// sim holds every virtual-clock number of the repetition, end-to-end
	// and layered alike. All of it must repeat exactly.
	sim values
	// samples records how many observations back each percentile and how
	// many lie beyond it.
	samples []string
	// attempted and failed count operations; an operation fails when it
	// errors or the oracle rejects its output. Load the serving policy
	// sheds or expires on purpose is counted by serve.unserved_frac, not
	// here.
	attempted, failed int64
	problems          []string
	dig               hash.Hash
}

func newRep(seed int64, scale float64, tr *tracer) *rep {
	return &rep{seed: seed, scale: scale, tr: tr, sim: values{}, dig: sha256.New()}
}

// scaled applies the repetition's scale to a count, never below min.
func (r *rep) scaled(n, min int) int {
	v := int(float64(n)*r.scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// fail records failed operations with one line of explanation.
func (r *rep) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// hash folds a labelled value into the repetition's digest: counters,
// virtual timestamps and output checksums that have no metric of their own.
func (r *rep) hash(label string, v any) {
	fmt.Fprintf(r.dig, "%s=%v\n", label, v)
}

// digest returns the hash over every virtual-clock metric plus everything
// folded in with hash. Two runs of the same seed on the same model print
// the same digest; a change meant only to speed the simulator up must
// leave it untouched.
func (r *rep) digest() string {
	names := make([]string, 0, len(r.sim))
	for k := range r.sim {
		names = append(names, k)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, k := range names {
		fmt.Fprintf(h, "%s=%v\n", k, r.sim[k])
	}
	h.Write(r.dig.Sum(nil))
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// registry returns the program set every system of the repetition installs:
// the stock one, wrapped in span recorders when tracing.
func (r *rep) registry() *apps.Registry {
	reg := appset.Base()
	if r.tr != nil {
		r.tr.wrap(reg)
	}
	return reg
}

// scope returns the obs scope for one system of the repetition (nil when
// untraced, which every obs method accepts).
func (r *rep) scope(name string) *obs.Obs {
	if r.tr == nil {
		return nil
	}
	return r.tr.root.Scope(name)
}

// system builds one testbed for the repetition. It never sets
// ReadPipeline, ParScan or the engine's fast-path switch: the benchmark
// measures the device and the kernel the repository ships by default.
func (r *rep) system(name string, cfg core.SystemConfig) *core.System {
	cfg.Registry = r.registry()
	cfg.Obs = r.scope(name)
	sys := core.NewSystem(cfg)
	if r.tr != nil {
		r.tr.watch(sys)
	}
	return sys
}

// finish runs the system to completion and releases its goroutines.
func (r *rep) finish(sys *core.System) sim.Time {
	end := sys.Run()
	if r.tr != nil {
		r.tr.collect(sys)
	}
	sys.Close()
	return end
}

// latency records a latency sample (in milliseconds): its mean under
// meanName (skipped when ""), its p99 — an exact order statistic — under
// p99Name, and a report line with the median and the sample counts. The
// mean stands beside the p99 in the end-to-end set because a median of
// device reads is the unloaded read time, the same number on every input.
func (r *rep) latency(meanName, p99Name string, ms []float64) (p50 float64) {
	sort.Float64s(ms)
	p50, _ = quantile(ms, 0.50)
	p99, beyond := quantile(ms, 0.99)
	if meanName != "" {
		var sum float64
		for _, x := range ms {
			sum += x
		}
		r.sim[meanName] = sum / float64(len(ms))
	}
	r.sim[p99Name] = p99
	r.samples = append(r.samples, fmt.Sprintf("%s: %d samples, %d beyond p99, median %.6g ms", p99Name, len(ms), beyond, p50))
	return p50
}

// runResult is what a set of repetitions reports.
type runResult struct {
	reps              int
	e2e               values // every end-to-end metric
	sim               values // every virtual-clock number, layered ones included
	samples           []string
	attempted, failed int64
	digest            string
	problems          []string
	// setups and walls are the host seconds of each repetition, in order,
	// printed beside their medians so the host noise of a run can be seen.
	setups, walls []float64
}

func (res *runResult) correct() bool { return res.failed == 0 && len(res.problems) == 0 }

// measure runs untraced repetitions of w until the given host seconds have
// passed, and at least minReps of them. Host metrics are medians over
// repetitions; virtual metrics must be identical in all of them.
func measure(w workload, seed int64, seconds, scale float64, minReps int, detail bool) *runResult {
	const maxReps = 8
	res := &runResult{e2e: values{}}
	var setup, wall, alloc []float64
	start := time.Now()
	for {
		runtime.GC()
		r := newRep(seed, scale, nil)
		r.detail = detail
		w.rep(r)
		r.clock.enter(phaseOff)
		setup = append(setup, float64(r.clock.ns[phaseSetup])/1e9)
		wall = append(wall, float64(r.clock.ns[phaseMeasured])/1e9)
		alloc = append(alloc, float64(r.clock.allocBytes)/1e6)
		res.reps++
		if res.reps == 1 {
			res.sim, res.samples, res.digest = r.sim, r.samples, r.digest()
			res.attempted, res.failed = r.attempted, r.failed
			res.problems = r.problems
		} else {
			// Every repetition attempts the same operations; report the
			// worst one's failures.
			if r.failed > res.failed {
				res.failed = r.failed
			}
			res.problems = append(res.problems, r.problems...)
			if d := r.digest(); d != res.digest {
				res.problems = append(res.problems,
					fmt.Sprintf("repetition %d: sim_digest %s differs from repetition 1's %s: %s",
						res.reps, d, res.digest, diffValues(res.sim, r.sim)))
			}
		}
		if res.reps >= maxReps || (res.reps >= minReps && time.Since(start).Seconds() >= seconds) {
			break
		}
	}
	res.setups, res.walls = setup, wall
	res.e2e["setup_s"] = median(setup)
	res.e2e["host_wall_s"] = median(wall)
	res.e2e["host_alloc_mb"] = median(alloc)
	for _, d := range endToEnd {
		if d.Sim {
			res.e2e[d.Name] = res.sim[d.Name]
		}
	}
	return res
}

// diffValues names the virtual-clock numbers on which two repetitions
// disagree.
func diffValues(a, b values) string {
	var out []string
	for k, x := range a {
		if y, ok := b[k]; !ok || x != y {
			out = append(out, fmt.Sprintf("%s %v vs %v", k, x, y))
		}
	}
	sort.Strings(out)
	if len(out) == 0 {
		return "same metrics, different counters or outputs"
	}
	return fmt.Sprint(out)
}

// report prints one run's end-to-end read-out.
func (res *runResult) report(w io.Writer, wl workload, seed int64) {
	fmt.Fprintf(w, "workload %s  seed %d  repetitions %d  GOMAXPROCS %d  %s\n",
		wl.name, seed, res.reps, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintln(w, "host metrics are medians over repetitions; virtual-clock metrics are identical in every repetition;")
	fmt.Fprintln(w, "latencies run from the instant a request was due, and the generators are never late on the virtual clock")
	printMetrics(w, "end to end", endToEnd, res.e2e)
	fmt.Fprintf(w, "   per repetition: setup_s %.4g  host_wall_s %.4g\n", res.setups, res.walls)
	var extra []metricDef
	for _, d := range perLayer {
		if _, ok := res.sim[d.Name]; ok {
			extra = append(extra, d)
		}
	}
	printMetrics(w, "virtual-clock detail", extra, res.sim)
	for _, s := range res.samples {
		fmt.Fprintf(w, "   %s\n", s)
	}
	frac := 0.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "fail_frac %.6g (%d failed of %d attempted)\n", frac, res.failed, res.attempted)
	fmt.Fprintf(w, "sim_digest %s\n", res.digest)
	for _, p := range res.problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

// runWorkload is the command's main mode: measure, report, and print the
// result line. It returns the process exit code.
func runWorkload(w io.Writer, wl workload, seed int64, seconds float64, traced bool) int {
	if !traced {
		res := measure(wl, seed, seconds, 1, 3, false)
		res.report(w, wl, seed)
		if !writeResult(w, endToEnd, res.e2e, res.correct(), res.attempted, res.failed) {
			return 1
		}
		return 0
	}
	// Traced: one plain repetition as the reference, one instrumented one
	// that must reproduce its virtual clock exactly, then the isolated
	// layer timings.
	res := measure(wl, seed, 0, 1, 1, true)
	layers, spans := traceRep(wl, seed, 1, res)
	if err := writeSpans(wl.name, spans); err != nil {
		fmt.Fprintf(os.Stderr, "bench: spans not written: %v\n", err)
	}
	res.report(w, wl, seed)
	for k, v := range isolatedLayers(1) {
		layers[k] = v
	}
	printMetrics(w, "per layer (traced repetition)", perLayer, layers)
	if !writeResult(w, perLayer, layers, res.correct(), res.attempted, res.failed) {
		return 1
	}
	return 0
}
