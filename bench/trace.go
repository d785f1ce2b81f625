package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"compstor/internal/apps"
	"compstor/internal/apps/splitscan"
	"compstor/internal/core"
	"compstor/internal/obs"
	"compstor/internal/sim"
)

// span is one interval recorded at a layer boundary, on both clocks. The
// benchmark's own phases (one per pass, application or load point) are the
// roots; every program the devices run is a child of the phase it ran in,
// or of the program that spawned it (a shell line's commands).
//
// Host times of sibling program spans overlap: the engine interleaves the
// processes that run them, so a program's host interval also contains
// whatever ran while it was parked. Phase spans do not overlap and
// partition the measured region. Per-kernel host seconds therefore come
// from the CPU profile (see layers), not from span arithmetic.
type span struct {
	ID     int      `json:"id"`
	Parent int      `json:"parent"` // -1 for a root
	Name   string   `json:"name"`
	HostNS [2]int64 `json:"host_ns"` // start, end; since the tracer started
	SimNS  [2]int64 `json:"sim_ns"`  // start, end; virtual clock of the span's system
}

// tracer instruments one repetition: an obs registry on every system,
// scheduler accounting with wall capture on every engine, a span around
// every program run, and a CPU profile of the measured region.
type tracer struct {
	root  *obs.Obs
	start time.Time
	spans []span
	phase int               // open phase span, -1 when none
	inner map[*sim.Proc]int // innermost open program span per process

	acct map[*core.System]*sim.Accounting
	// totals over the repetition's systems
	events, switches, inline int64
	maxDepth                 int
	wallNS                   int64
	mallocs                  uint64

	profile  bytes.Buffer // the running CPU profile segment
	samples  []cpuSample
	peakHeap uint64
}

func newTracer() *tracer {
	return &tracer{
		root:  obs.New(),
		start: time.Now(),
		phase: -1,
		inner: map[*sim.Proc]int{},
		acct:  map[*core.System]*sim.Accounting{},
	}
}

// spanHandle closes a phase span. A nil handle (untraced run) does nothing.
type spanHandle struct {
	tr *tracer
	id int
}

// begin opens a phase span at virtual time at.
func (t *tracer) begin(name string, at sim.Time) *spanHandle {
	if t == nil {
		return nil
	}
	t.phase = t.open(name, -1, at)
	return &spanHandle{tr: t, id: t.phase}
}

func (h *spanHandle) end(at sim.Time) {
	if h == nil {
		return
	}
	h.tr.close(h.id, at)
	h.tr.phase = -1
}

func (t *tracer) open(name string, parent int, at sim.Time) int {
	id := len(t.spans)
	now := time.Since(t.start).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		HostNS: [2]int64{now, now}, SimNS: [2]int64{int64(at), int64(at)}})
	return id
}

func (t *tracer) close(id int, at sim.Time) {
	t.spans[id].HostNS[1] = time.Since(t.start).Nanoseconds()
	t.spans[id].SimNS[1] = int64(at)
}

// spanProgram records a span around every run of the program it wraps.
type spanProgram struct {
	apps.Program
	tr *tracer
}

func (sp spanProgram) Run(ctx *apps.Context, args []string) error {
	t := sp.tr
	parent, nested := t.inner[ctx.Proc]
	if !nested {
		parent = t.phase
	}
	id := t.open(sp.Name(), parent, ctx.Proc.Now())
	t.inner[ctx.Proc] = id
	defer func() {
		t.close(id, ctx.Proc.Now())
		if nested {
			t.inner[ctx.Proc] = parent
		} else {
			delete(t.inner, ctx.Proc)
		}
	}()
	return sp.Program.Run(ctx, args)
}

// spanSplitter keeps a wrapped program chunkable: the ISPS finds split-scan
// support by asserting splitscan.Splitter on the registered program.
type spanSplitter struct {
	spanProgram
	split splitscan.Splitter
}

func (sp spanSplitter) SplitPlan(args []string) (splitscan.Plan, bool) {
	return sp.split.SplitPlan(args)
}

// wrap replaces every program of the registry with its span-recording
// decorator.
func (t *tracer) wrap(reg *apps.Registry) {
	for _, name := range reg.Names() {
		prog, _ := reg.Lookup(name)
		dec := spanProgram{Program: prog, tr: t}
		if s, ok := prog.(splitscan.Splitter); ok {
			reg.Register(spanSplitter{spanProgram: dec, split: s})
		} else {
			reg.Register(dec)
		}
	}
}

// watch turns on scheduler accounting (with wall capture) for a system.
func (t *tracer) watch(sys *core.System) {
	t.acct[sys] = sys.Eng.EnableAccounting(sim.AccountingConfig{Wall: true})
}

// collect folds a finished system's accounting into the totals.
func (t *tracer) collect(sys *core.System) {
	a := t.acct[sys]
	if a == nil {
		return
	}
	delete(t.acct, sys)
	ws := a.WallStats()
	t.events += a.Events()
	t.switches += a.ProcSwitches()
	t.inline += a.InlineWaits()
	if d := a.MaxHeapDepth(); d > t.maxDepth {
		t.maxDepth = d
	}
	t.wallNS += ws.WallNS
	t.mallocs += ws.Mallocs
	t.noteHeap()
}

func (t *tracer) noteHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > t.peakHeap {
		t.peakHeap = ms.HeapInuse
	}
}

// onPhase profiles exactly the measured region: a CPU profile segment
// starts when the host clock enters it and is parsed when it leaves.
func (t *tracer) onPhase(from, to phase) {
	if from == phaseMeasured {
		pprof.StopCPUProfile()
		if s, err := parseCPUProfile(t.profile.Bytes()); err == nil {
			t.samples = append(t.samples, s...)
		}
		t.noteHeap()
	}
	if to == phaseMeasured {
		t.profile.Reset()
		// An error means a profile is already running; the segment is then
		// simply missing from the attribution.
		_ = pprof.StartCPUProfile(&t.profile)
	}
}

// hostLayer maps one CPU sample to the repository layer its innermost
// repository frame belongs to, and — for application kernels — to the
// program whose Run method is on the stack.
func hostLayer(stack []string) (layer, program string) {
	const internal = "compstor/internal/"
	layer = "other"
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internal); ok {
			layer = rest[:strings.IndexByte(rest, '.')]
			break
		}
	}
	if !strings.HasPrefix(layer, "apps") {
		return layer, ""
	}
	for i := len(stack) - 1; i >= 0; i-- {
		rest, ok := strings.CutPrefix(stack[i], internal+"apps/")
		if !ok || !strings.HasSuffix(rest, ".Run") {
			continue
		}
		pkg, typ, _ := strings.Cut(strings.TrimSuffix(rest, ".Run"), ".")
		switch pkg {
		case "grepx", "awkx", "gzipx", "bzip2x":
			return layer, strings.ToLower(typ)
		case "coreutils":
			return layer, "coreutils"
		}
	}
	return layer, ""
}

// layerGroup folds repository packages into the five shares the roadmap
// asks the host clock to be attributed to.
func layerGroup(layer string) string {
	switch {
	case layer == "sim":
		return "host.sim_share"
	case strings.HasPrefix(layer, "apps"):
		return "apps.host_share"
	case layer == "cluster" || layer == "serve" || layer == "chaos":
		return "host.policy_share"
	case layer == "obs" || layer == "trace":
		return "host.obs_share"
	case layer == "other" || layer == "textgen" || layer == "experiments":
		return "host.other_share"
	default: // flash, ftl, nvme, pcie, ssd, minfs, isps, core, cpu, energy
		return "host.device_share"
	}
}

// cpuClasses reads the runtime's CPU-time estimates: GC and non-idle total.
func cpuClasses() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// layers turns everything the traced repetition recorded into per-layer
// metrics. Every catalogue name is present; one the workload does not
// exercise reads 0.
func (t *tracer) layers(r *rep) values {
	out := values{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	for k, v := range r.sim {
		if _, ok := out[k]; ok {
			out[k] = v
		}
	}

	t0 := time.Now()
	snap := t.root.Snapshot("bench")
	out["obs.snapshot_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	s := snapView{snap}
	onDevice := func(name string) bool { return strings.Contains(name, "compstor") }
	all := func(string) bool { return true }

	out["sim.events"] = float64(t.events)
	out["sim.proc_switches"] = float64(t.switches)
	out["sim.inline_waits"] = float64(t.inline)
	out["sim.max_queue_depth"] = float64(t.maxDepth)
	if t.wallNS > 0 {
		out["sim.events_per_s"] = float64(t.events) / (float64(t.wallNS) / 1e9)
	}
	if t.events > 0 {
		out["sim.allocs_per_event"] = float64(t.mallocs) / float64(t.events)
	}

	for _, c := range []string{"flash.reads", "flash.programs", "flash.erases",
		"ftl.host_reads", "ftl.host_writes", "ftl.gc_writes", "ftl.gc_runs",
		"nvme.commands", "nvme.vendor_cmds", "nvme.failures", "nvme.bytes_to_host",
		"cluster.task_attempts", "cluster.retries"} {
		out[c] = s.counter(c, all)
	}
	out["flash.busy_ms"] = s.histSumMS("flash.read", all) + s.histSumMS("flash.program", all) + s.histSumMS("flash.erase", all)
	out["flash.chan_util"] = 100 * s.timelineMean("busy", func(n string) bool { return strings.Contains(n, "flash.ch") })
	if hw := out["ftl.host_writes"]; hw > 0 {
		out["ftl.waf"] = (hw + out["ftl.gc_writes"]) / hw
	}
	out["ftl.read_ms"] = s.histSumMS("ftl.read", all)
	out["ftl.write_ms"] = s.histSumMS("ftl.write", all)
	out["ftl.gc_pause_ms"] = s.histSumMS("ftl.gc_pause", all)
	out["nvme.qd_wait_ms"] = s.histSumMS("nvme.qd_wait", all)
	out["core.minions"] = s.counter("agent.minions", all)
	if n := s.histCount("nvme.vendor_minion", all); n > 0 {
		// Mean client round trip at the NVMe driver minus mean in-device
		// task execution: what the in-situ protocol itself costs a request.
		out["core.protocol_overhead_us"] = 1e3 * (s.histSumMS("nvme.vendor_minion", all) - s.histSumMS("isps.task_exec", onDevice)) / n
	}
	out["pcie.uplink_util"] = 100 * s.timelineMean("pcie.uplink.busy", all)
	out["pcie.port_util"] = 100 * s.timelineMean("busy", func(n string) bool { return strings.Contains(n, "pcie.port") })
	out["ssd.cache_hits"] = s.counter("isps.cache.hits", all)
	out["ssd.cache_misses"] = s.counter("isps.cache.misses", all)
	if lookups := out["ssd.cache_hits"] + out["ssd.cache_misses"]; lookups > 0 {
		out["ssd.cache_hit_ratio"] = out["ssd.cache_hits"] / lookups
	}
	out["isps.completed"] = s.counter("isps.completed", onDevice)
	out["isps.failed"] = s.counter("isps.failed", onDevice)
	out["isps.parscan_chunks"] = s.counter("isps.parscan.chunks", onDevice)
	out["isps.core_util"] = 100 * s.timelineMean("isps.cores.busy", onDevice)
	if n := s.histCount("isps.task_exec", onDevice); n > 0 {
		out["isps.task_exec_ms"] = s.histSumMS("isps.task_exec", onDevice) / n
		out["isps.core_queue_ms"] = s.histSumMS("isps.core_queue", onDevice) / n
	}
	out["cluster.hedge_issued"] = s.counter("cluster.hedge.issued", all)
	out["cluster.hedge_won"] = s.counter("cluster.hedge.won", all)
	out["cluster.hedge_wasted"] = s.counter("cluster.hedge.wasted", all)
	if issued := out["cluster.hedge_issued"]; issued > 0 {
		out["cluster.hedge_useful_ratio"] = out["cluster.hedge_won"] / issued
	}
	out["cluster.quarantines"] = s.counter("cluster.health.quarantines", all)
	out["cluster.budget_denied"] = s.counter("cluster.retry_budget.denied", all)
	out["serve.shed"] = s.counter("shed", func(n string) bool { return strings.Contains(n, "serve.tenant.") })
	out["serve.failed"] = s.counter("failed", func(n string) bool { return strings.Contains(n, "serve.tenant.") })

	// Host clock by layer, from the CPU profile of the measured region.
	var total float64
	for _, cs := range t.samples {
		sec := float64(cs.ns) / 1e9
		total += sec
		layer, program := hostLayer(cs.stack)
		out[layerGroup(layer)] += sec
		if program != "" {
			out["apps."+program+".host_s"] += sec
		}
	}
	out["host.cpu_s"] = total
	if total > 0 {
		for _, k := range []string{"apps.host_share", "host.sim_share", "host.device_share", "host.policy_share", "host.obs_share", "host.other_share"} {
			out[k] /= total
		}
	}
	t.noteHeap()
	out["host.peak_heap_mb"] = float64(t.peakHeap) / 1e6
	return out
}

// snapView answers the aggregate questions layers asks of a snapshot whose
// names carry a system and device prefix ("r80.compstor2.flash.reads").
type snapView struct{ obs.Snapshot }

func matches(name, suffix string) bool {
	return name == suffix || strings.HasSuffix(name, "."+suffix)
}

func (s snapView) counter(suffix string, keep func(string) bool) float64 {
	var sum float64
	for _, c := range s.Counters {
		if matches(c.Name, suffix) && keep(c.Name) {
			sum += float64(c.Value)
		}
	}
	return sum
}

func (s snapView) histSumMS(suffix string, keep func(string) bool) float64 {
	var sum float64
	for _, h := range s.Histograms {
		if matches(h.Name, suffix) && keep(h.Name) {
			sum += float64(h.SumNS) / 1e6
		}
	}
	return sum
}

func (s snapView) histCount(suffix string, keep func(string) bool) float64 {
	var n float64
	for _, h := range s.Histograms {
		if matches(h.Name, suffix) && keep(h.Name) {
			n += float64(h.Count)
		}
	}
	return n
}

// timelineMean averages the run-wide busy fraction of the matching
// timelines (each covers its system's whole simulated run, staging
// included).
func (s snapView) timelineMean(suffix string, keep func(string) bool) float64 {
	var sum float64
	n := 0
	for _, tl := range s.Timelines {
		if matches(tl.Name, suffix) && keep(tl.Name) {
			sum += tl.Mean
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// traceRep runs the instrumented repetition of a traced run. ref is the
// plain reference repetition: the traced one must reproduce its virtual
// clock exactly, and the ratio of their measured-region wall times is what
// the instrumentation costs.
func traceRep(wl workload, seed int64, scale float64, ref *runResult) (values, []span) {
	tr := newTracer()
	r := newRep(seed, scale, tr)
	r.detail = true
	r.clock.onSwitch = tr.onPhase
	runtime.GC()
	gc0, busy0 := cpuClasses()
	wl.rep(r)
	r.clock.enter(phaseOff)
	gc1, busy1 := cpuClasses()

	if d := r.digest(); d != ref.digest {
		ref.problems = append(ref.problems,
			fmt.Sprintf("traced repetition: sim_digest %s differs from the plain repetition's %s: %s", d, ref.digest, diffValues(ref.sim, r.sim)))
	}
	if r.failed > ref.failed {
		ref.failed = r.failed
	}
	ref.problems = append(ref.problems, r.problems...)
	if err := checkSpans(tr.spans); err != nil {
		ref.problems = append(ref.problems, err.Error())
	}

	out := tr.layers(r)
	if plain := ref.e2e["host_wall_s"]; plain > 0 {
		out["obs.metrics_overhead_frac"] = float64(r.clock.ns[phaseMeasured])/1e9/plain - 1
	}
	if busy1 > busy0 {
		out["host.gc_cpu_frac"] = (gc1 - gc0) / (busy1 - busy0)
	}
	return out, tr.spans
}

// checkSpans verifies the span forest is well formed: every span closed
// after it opened, and every child inside its parent on both clocks.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.HostNS[1] < s.HostNS[0] || s.SimNS[1] < s.SimNS[0] {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d opened after it", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.HostNS[0] < p.HostNS[0] || s.HostNS[1] > p.HostNS[1] || s.SimNS[0] < p.SimNS[0] || s.SimNS[1] > p.SimNS[1] {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// spansDir is where a traced run leaves its spans: the build directory the
// run script creates, which .gitignore names.
const spansDir = ".bench_build"

// writeSpans writes the recorded spans as JSON when the benchmark ends.
func writeSpans(workload string, spans []span) error {
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(spansDir, "spans-"+workload+".json"), b, 0o644)
}
