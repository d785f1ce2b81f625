package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one entry of the metric catalogue. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestCatalogueMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics carry none.
	Bound float64
	// Sim marks a virtual-clock metric: a pure function of the seed, so
	// repetitions and same-seed runs must agree on it exactly.
	Sim bool
}

// endToEnd is what a user of the system sees, on every workload. The
// meaning of the virtual-clock entries per workload is in README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_alloc_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "sim_mbps", Unit: "MB/s", Better: "higher", Bound: 0.02, Sim: true},
	{Name: "sim_mean_ms", Unit: "ms", Better: "lower", Bound: 0.02, Sim: true},
	{Name: "sim_p99_ms", Unit: "ms", Better: "lower", Bound: 0.12, Sim: true},
	{Name: "sim_j_per_gb", Unit: "J/GB", Better: "lower", Bound: 0.02, Sim: true},
}

// perLayer is the traced run's read-out, named by module. A metric a
// workload does not exercise reads 0 there (the prediction tables in
// README.md say which). Entries marked isolated come from timing the
// layer's public entry points alone, outside any workload.
var perLayer = []metricDef{
	// sim kernel
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.proc_switches", Unit: "count", Better: "lower"},
	{Name: "sim.inline_waits", Unit: "count", Better: "higher"},
	{Name: "sim.max_queue_depth", Unit: "count", Better: "lower"},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower"}, // isolated
	// flash array
	{Name: "flash.reads", Unit: "count", Better: "lower"},
	{Name: "flash.programs", Unit: "count", Better: "lower"},
	{Name: "flash.erases", Unit: "count", Better: "lower"},
	{Name: "flash.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "flash.chan_util", Unit: "%", Better: "higher"},
	{Name: "flash.host_ns_per_op", Unit: "ns", Better: "lower"}, // isolated
	// translation layer
	{Name: "ftl.host_reads", Unit: "count", Better: "lower"},
	{Name: "ftl.host_writes", Unit: "count", Better: "lower"},
	{Name: "ftl.gc_writes", Unit: "count", Better: "lower"},
	{Name: "ftl.gc_runs", Unit: "count", Better: "lower"},
	{Name: "ftl.waf", Unit: "ratio", Better: "lower"},
	{Name: "ftl.read_ms", Unit: "ms", Better: "lower"},
	{Name: "ftl.write_ms", Unit: "ms", Better: "lower"},
	{Name: "ftl.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "ftl.host_ns_per_write", Unit: "ns", Better: "lower"}, // isolated
	// NVMe front-end, in-situ protocol, fabric, filesystem
	{Name: "nvme.commands", Unit: "count", Better: "lower"},
	{Name: "nvme.vendor_cmds", Unit: "count", Better: "lower"},
	{Name: "nvme.qd_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "nvme.failures", Unit: "count", Better: "lower"},
	{Name: "nvme.bytes_to_host", Unit: "bytes", Better: "lower"},
	{Name: "core.minions", Unit: "count", Better: "lower"},
	{Name: "core.protocol_overhead_us", Unit: "us", Better: "lower"},
	{Name: "pcie.uplink_util", Unit: "%", Better: "lower"},
	{Name: "pcie.port_util", Unit: "%", Better: "lower"},
	{Name: "minfs.host_mbps", Unit: "MB/s", Better: "higher"}, // isolated
	// ISPS read cache and task executor
	{Name: "ssd.cache_hits", Unit: "count", Better: "higher"},
	{Name: "ssd.cache_misses", Unit: "count", Better: "lower"},
	{Name: "ssd.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "isps.completed", Unit: "count", Better: "higher"},
	{Name: "isps.failed", Unit: "count", Better: "lower"},
	{Name: "isps.core_util", Unit: "%", Better: "higher"},
	{Name: "isps.core_queue_ms", Unit: "ms", Better: "lower"},
	{Name: "isps.task_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "isps.parscan_chunks", Unit: "count", Better: "higher"},
	{Name: "scan.many.sim_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "scan.big.sim_mbps", Unit: "MB/s", Better: "higher"},
	// cluster policy
	{Name: "cluster.task_attempts", Unit: "count", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.hedge_issued", Unit: "count", Better: "lower"},
	{Name: "cluster.hedge_won", Unit: "count", Better: "higher"},
	{Name: "cluster.hedge_wasted", Unit: "count", Better: "lower"},
	{Name: "cluster.hedge_useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.quarantines", Unit: "count", Better: "lower"},
	{Name: "cluster.budget_denied", Unit: "count", Better: "lower"},
	// serving front-end (all load points of serve_mix summed, unless named)
	{Name: "serve.arrived", Unit: "count", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.failed", Unit: "count", Better: "lower"},
	{Name: "serve.slo_violations", Unit: "count", Better: "lower"},
	{Name: "serve.wait_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.closed_loop_rps", Unit: "1/s", Better: "higher"},
	{Name: "serve.p50_ms_r80", Unit: "ms", Better: "lower"},
	{Name: "serve.p99_ms_r50", Unit: "ms", Better: "lower"},
	{Name: "serve.p99_ms_r80", Unit: "ms", Better: "lower"},
	{Name: "serve.p99_ms_r110", Unit: "ms", Better: "lower"},
	{Name: "serve.p99_ms_gray", Unit: "ms", Better: "lower"},
	{Name: "serve.bg_p99_ms_r80", Unit: "ms", Better: "lower"},
	{Name: "serve.slo_rate_rps", Unit: "1/s", Better: "higher"},
	{Name: "serve.unserved_frac", Unit: "ratio", Better: "lower"},
	{Name: "chaos.failslow_waits", Unit: "count", Better: "higher"},
	// application kernels: host seconds from the traced run's CPU profile
	{Name: "apps.grep.host_s", Unit: "s", Better: "lower"},
	{Name: "apps.gawk.host_s", Unit: "s", Better: "lower"},
	{Name: "apps.gzip.host_s", Unit: "s", Better: "lower"},
	{Name: "apps.gunzip.host_s", Unit: "s", Better: "lower"},
	{Name: "apps.bzip2.host_s", Unit: "s", Better: "lower"},
	{Name: "apps.bunzip2.host_s", Unit: "s", Better: "lower"},
	{Name: "apps.coreutils.host_s", Unit: "s", Better: "lower"},
	{Name: "apps.host_share", Unit: "ratio", Better: "lower"},
	// application kernels, isolated
	{Name: "grepx.host_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "awkx.host_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "awkx.allocs_per_kb", Unit: "count", Better: "lower"},
	{Name: "gzipx.comp_host_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "gzipx.decomp_host_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "gzipx.allocs_per_kb", Unit: "count", Better: "lower"},
	{Name: "bzip2x.comp_host_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "bzip2x.decomp_host_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "coreutils.wc_host_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "textgen.host_mbps", Unit: "MB/s", Better: "higher"}, // isolated
	// energy model and its accuracy against the paper
	{Name: "energy.isps_j", Unit: "J", Better: "lower"},
	{Name: "energy.host_j", Unit: "J", Better: "lower"},
	{Name: "energy.xeon_over_compstor", Unit: "ratio", Better: "higher"},
	{Name: "model.paper_err_pct", Unit: "%", Better: "lower"},
	// observability cost and accuracy
	{Name: "obs.hist_p99_err_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.metrics_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.snapshot_ms", Unit: "ms", Better: "lower"},
	// the simulator process itself
	{Name: "host.cpu_s", Unit: "s", Better: "lower"},
	{Name: "host.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "host.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "host.sim_share", Unit: "ratio", Better: "lower"},
	{Name: "host.device_share", Unit: "ratio", Better: "lower"},
	{Name: "host.policy_share", Unit: "ratio", Better: "lower"},
	{Name: "host.obs_share", Unit: "ratio", Better: "lower"},
	{Name: "host.other_share", Unit: "ratio", Better: "lower"},
}

// values maps metric name to measured value.
type values map[string]float64

// printMetrics writes every catalogue metric present in v as
// "name value unit", in catalogue order.
func printMetrics(w io.Writer, title string, defs []metricDef, v values) {
	fmt.Fprintf(w, "-- %s\n", title)
	for _, d := range defs {
		if x, ok := v[d.Name]; ok {
			fmt.Fprintf(w, "%-28s %16.6g %s\n", d.Name, x, d.Unit)
		}
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the JSON result line holding exactly the metrics of
// defs. A catalogue metric missing from v, or not a finite number, is a
// bug in the benchmark and makes the run incorrect.
func writeResult(w io.Writer, defs []metricDef, v values, correct bool, attempted, failed int64) bool {
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			fmt.Fprintf(w, "bench: metric %s missing or not finite (%v)\n", d.Name, x)
			out.Correct = false
			x = 0
		}
		out.Metrics[d.Name] = resultValue{Value: x, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
	return out.Correct
}

// median returns the middle value (mean of the two middle ones for an even
// count). It panics on an empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the exact order statistic at rank ceil(q·n) of the
// samples (1-based), and how many samples lie strictly beyond that rank.
// A percentile is only reported when enough samples lie beyond it.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}
