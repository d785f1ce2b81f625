package experiments

import (
	"slices"
	"testing"

	"compstor/internal/cpu"
)

// The claims table: everything the repository asserts about an
// experiment's result, one function per report type. TestRegistry runs it
// on the report each row computes at tinyOptions (12 books of 6 KiB; 1, 2
// and 4 devices; an 8-channel x 4-die drive), so every threshold is stated
// for that scale, with the value it reads there in parentheses. Paper-scale
// fidelity (Fig 6 at 8 devices, the Fig 7 crossover, the Fig 8 bands at
// 348 books) needs a paper-scale run and is not checked here.

// claim checks rep against its claims and reports whether the row
// simulated anything. A report type with no case fails: adding an
// experiment is a row, its function and its claim.
func claim(t *testing.T, rep Report) (simulated bool) {
	t.Helper()
	switch r := rep.(type) {
	case reports:
		for _, sub := range r {
			simulated = claim(t, sub) || simulated
		}
		return simulated
	case Table1, Table2, Table4:
		return false // rendered from model constants
	case Table3Result:
		claimTable3(t, r)
	case Fig1Result:
		claimFig1(t, r)
	case Fig6Result:
		claimFig6(t, r)
	case Fig7Result:
		claimFig7(t, r)
	case Fig8Result:
		claimFig8(t, r)
	case InterferenceResult:
		claimInterference(t, r)
	case StripingResult:
		claimStriping(t, r)
	case DirectPathResult:
		claimDirectPath(t, r)
	case DegradedResult:
		claimDegraded(t, r)
	case RecoveryResult:
		claimRecoveryIntervals(t, r)
		claimRecoveryScan(t, r)
	case ScaleupResult:
		claimScaleup(t, r)
		claimPipeline(t, r)
	case ServingResult:
		claimServing(t, r)
	case TailResult:
		claimTailHeadline(t, r)
		claimTailStorm(t, r)
	default:
		t.Errorf("%T is simulated but has no claim", rep)
	}
	return true
}

// within fails unless lo <= v <= hi.
func within(t *testing.T, what string, v, lo, hi float64) {
	t.Helper()
	if v < lo || v > hi {
		t.Errorf("%s = %.3g, want within [%g, %g]", what, v, lo, hi)
	}
}

// Table III: the paper's six lifetime steps of one traced minion, in
// virtual-time order.
func claimTable3(t *testing.T, r Table3Result) {
	t.Helper()
	if len(r.Steps) != 6 {
		t.Fatalf("%d steps, want the paper's six", len(r.Steps))
	}
	for i := 1; i < len(r.Steps); i++ {
		if r.Steps[i].At < r.Steps[i-1].At {
			t.Errorf("steps out of order: %+v", r.Steps)
		}
	}
}

// Fig 1: the paper's server arithmetic (8.5 GB/s of media per SSD, ~545
// GB/s over 64 of them against a 16 GB/s host: ~34x), and the in-situ scan
// out-running the host path on the simulated devices (2.55x).
func claimFig1(t *testing.T, r Fig1Result) {
	t.Helper()
	within(t, "per-SSD media B/s", r.PerSSDMediaBW, 8e9, 9e9)
	within(t, "server media B/s", r.ServerMediaBW, 500e9, 600e9)
	within(t, "analytic mismatch", r.AnalyticFactor, 30, 40)
	if r.MeasuredInSituBW <= r.MeasuredHostBW {
		t.Errorf("in-situ scan (%v B/s) not faster than host scan (%v B/s)", r.MeasuredInSituBW, r.MeasuredHostBW)
	}
}

// Fig 6: each of the four applications runs without failure and speeds up
// at least 2.2x from 1 to 4 devices (2.45-2.49x), no point falling under
// 90% of the one before.
func claimFig6(t *testing.T, series Fig6Result) {
	t.Helper()
	if len(series) != 4 {
		t.Errorf("%d series, want gzip, bzip2, grep and gawk", len(series))
	}
	for _, s := range series {
		if s.Failures > 0 {
			t.Errorf("%s: %d failures", s.App, s.Failures)
		}
		if sp := s.Speedup(); sp < 2.2 {
			t.Errorf("%s: speedup %.2fx over %v devices, want >= 2.2x", s.App, sp, s.Devices)
		}
		for i := 1; i < len(s.MBps); i++ {
			if s.MBps[i] < 0.9*s.MBps[i-1] {
				t.Errorf("%s throughput regressed: %v", s.App, s.MBps)
			}
		}
	}
}

// Fig 7: with bzip2 split between the Xeon and N CompStors, the device
// aggregate at least doubles from 1 to 4 devices (2.43x), the host stays
// within 2x of flat (1.13x), and the total grows.
func claimFig7(t *testing.T, pts Fig7Result) {
	t.Helper()
	if len(pts) < 2 {
		t.Fatalf("%d points, want a device sweep", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.DevMBps < 2*first.DevMBps || last.TotalMBps <= first.TotalMBps {
		t.Errorf("device aggregate did not double or total did not grow: %+v", pts)
	}
	within(t, "host last/first", safeDiv(last.HostMBps, first.HostMBps), 0.5, 2)
}

// Fig 8: CompStor spends 1.2-5x less energy per GB than the Xeon on all six
// applications (2.41-4.79x), and each measured J/GB sits within 2x of the
// paper's either way (CompStor 1.09-1.46x, Xeon 1.38-2.38x of it). Gunzip on
// the Xeon is the declared deviation, allowed 2.5x: the host's gunzip
// output stream is partly write-bound on the scaled drive's die budget,
// which the paper's 256 GB NVMe SSD absorbs (EXPERIMENTS.md, Fig 8).
func claimFig8(t *testing.T, rows Fig8Result) {
	t.Helper()
	if len(rows) != 6 {
		t.Errorf("%d rows, want the paper's six applications", len(rows))
	}
	for _, r := range rows {
		xeonHi := 2.0
		if r.App == "gunzip" {
			xeonHi = 2.5
		}
		within(t, r.App+" Xeon/CompStor J/GB", r.Ratio, 1.2, 5)
		within(t, r.App+" CompStor/paper J/GB", r.CompStorJPerGB/r.PaperCompStor, 0.5, 2)
		within(t, r.App+" Xeon/paper J/GB", r.XeonJPerGB/r.PaperXeon, 0.5, xeonHi)
	}
}

// §IV.C: in-situ compression on the dedicated ISPS leaves 4 KiB random
// reads within 1.5x of an idle drive's latency (1.00x), while controller
// cores shared with it slow them at least 1.2x more than that (63.1x).
func claimInterference(t *testing.T, r InterferenceResult) {
	t.Helper()
	if r.BaselineReads == 0 || r.DedicatedReads == 0 || r.SharedReads == 0 {
		t.Fatalf("no reads measured: %+v", r)
	}
	if r.DedicatedSlowdown > 1.5 || r.SharedSlowdown < 1.2*r.DedicatedSlowdown {
		t.Errorf("dedicated %.2fx, shared %.2fx: want dedicated <= 1.5x and shared >= 1.2x dedicated",
			r.DedicatedSlowdown, r.SharedSlowdown)
	}
}

// Striping: channel-striped allocation out-writes linear allocation (27x).
func claimStriping(t *testing.T, r StripingResult) {
	t.Helper()
	if r.StripedMBps <= r.LinearMBps {
		t.Errorf("striping (%v MB/s) not faster than linear (%v MB/s)", r.StripedMBps, r.LinearMBps)
	}
}

// Direct path: the ISPS's own flash path out-runs the NVMe loopback (1.49x).
func claimDirectPath(t *testing.T, r DirectPathResult) {
	t.Helper()
	if r.DirectMBps <= r.ViaMBps {
		t.Errorf("direct path (%v MB/s) not faster than loopback (%v MB/s)", r.DirectMBps, r.ViaMBps)
	}
}

// Degraded mode: killing device 0 mid-run leaves every output
// byte-identical, marks exactly device 0 dead, and costs throughput (57% at
// 2 devices, 74% at 4).
func claimDegraded(t *testing.T, pts DegradedResult) {
	t.Helper()
	if len(pts) == 0 {
		t.Fatal("no degraded point")
	}
	for _, pt := range pts {
		if !pt.ResultsMatch || !slices.Equal(pt.DeadDevices, []int{0}) {
			t.Errorf("n=%d: results match %v, dead %v; want true, [0]", pt.Devices, pt.ResultsMatch, pt.DeadDevices)
		}
		if pt.DegradedMBps <= 0 || pt.DegradedMBps >= pt.HealthyMBps {
			t.Errorf("n=%d: healthy %v MB/s, degraded %v: losing a device must cost, not stop", pt.Devices, pt.HealthyMBps, pt.DegradedMBps)
		}
	}
}

// Crash recovery: every interval narrow enough to checkpoint (at most half
// the writes) finds its checkpoint, recovers exactly the pages the
// never-checkpoint scan does, and replays and remounts for less; at least
// one interval is that narrow.
func claimRecoveryIntervals(t *testing.T, r RecoveryResult) {
	t.Helper()
	if len(r.Intervals) < 3 || r.Intervals[0].CheckpointFound || r.Intervals[0].RecoveredPages == 0 {
		t.Fatalf("want a never-checkpoint scan that recovers pages, then intervals: %+v", r.Intervals)
	}
	base, checkpointed := r.Intervals[0], 0
	for _, pt := range r.Intervals[1:] {
		if pt.CheckpointEvery > pt.Writes/2 {
			continue
		}
		checkpointed++
		if !pt.CheckpointFound || pt.RecoveredPages != base.RecoveredPages ||
			pt.ReplayedWrites >= base.ReplayedWrites || pt.RemountTime >= base.RemountTime {
			t.Errorf("interval %d bounds nothing or changes the recovered state: %+v against the scan %+v", pt.CheckpointEvery, pt, base)
		}
	}
	if checkpointed == 0 {
		t.Error("no interval was small enough to checkpoint; sweep is miscalibrated")
	}
}

// The OOB scan grows with the media.
func claimRecoveryScan(t *testing.T, r RecoveryResult) {
	t.Helper()
	for i := 1; i < len(r.Scaling); i++ {
		if prev, pt := r.Scaling[i-1], r.Scaling[i]; pt.MediaMB <= prev.MediaMB || pt.ScannedPages <= prev.ScannedPages {
			t.Errorf("scan did not grow with media: %d pages at %.0f MB, then %d at %.0f MB",
				prev.ScannedPages, prev.MediaMB, pt.ScannedPages, pt.MediaMB)
		}
	}
}

// Split scan: every point's output is byte-identical to the serial-read
// one-chunk scan; one chunk never splits, while 2 or 4 split the one task
// into that many chunks and run faster; on the stock (pipelined) device 4
// chunks speed wc and grep at least 2.5x (3.65x, 3.74x).
func claimScaleup(t *testing.T, pts ScaleupResult) {
	t.Helper()
	fourCore := map[string]float64{}
	for _, pt := range pts {
		ok := pt.ParScan.Tasks == 0 && pt.ParScan.Chunks == 0
		if pt.Cores > 1 {
			ok = pt.ParScan.Tasks == 1 && pt.ParScan.Chunks == int64(pt.Cores) && pt.Speedup > 1
		}
		if !pt.OutputsMatch || !ok {
			t.Errorf("%s (pipelined=%v cores=%d): outputs match %v, speedup %.2fx, %+v",
				pt.Workload, pt.Pipelined, pt.Cores, pt.OutputsMatch, pt.Speedup, pt.ParScan)
		}
		if pt.Pipelined && pt.Cores == 4 {
			fourCore[pt.Workload] = pt.Speedup
		}
	}
	for _, w := range []string{"wc", "grep"} {
		if s := fourCore[w]; s < 2.5 {
			t.Errorf("%s pipelined 4-core speedup %.2fx, want >= 2.5x", w, s)
		}
	}
}

// Read pipeline, on scaleup's one-core rows: every pipelined scan is
// faster than its serial row and engages the cache and the prefetcher;
// grep gains at least 1/cpu.StreamCPUFraction(grep), what dropping its
// measured read stall from the core charge is worth (1.08x against 1.04x).
func claimPipeline(t *testing.T, pts ScaleupResult) {
	t.Helper()
	serial := map[string]float64{} // one-core serial-read MB/s
	piped := 0
	for _, pt := range pts {
		if pt.Cores == 1 && !pt.Pipelined {
			serial[pt.Workload] = pt.MBps
		}
	}
	for _, pt := range pts {
		if pt.Cores != 1 || !pt.Pipelined {
			continue
		}
		piped++
		gain := pt.MBps / serial[pt.Workload]
		if serial[pt.Workload] == 0 || gain <= 1 || pt.Cache.Hits == 0 || pt.Cache.PrefetchPages == 0 {
			t.Errorf("%s pipelined 1-core: %.2fx the serial row, cache %+v", pt.Workload, gain, pt.Cache)
		}
		if floor := 1 / cpu.StreamCPUFraction(cpu.ClassGrep); pt.Workload == "grep" && gain < floor {
			t.Errorf("grep pipelined/serial %.2fx, want >= %.2fx", gain, floor)
		}
	}
	if piped == 0 || serial["grep"] == 0 {
		t.Errorf("no pipelined one-core row, or no serial grep row: %+v", pts)
	}
}

// Serving: a calibrated capacity and SLO; the load sweep and two chaos
// points; every tenant conserves requests (arrived = admitted + shed,
// admitted = finished + failed); the interactive tenant meets its SLO at
// 0.25x capacity (100%), keeps its p99 under the SLO at 0.75x (9.4 ms
// against 56.5 ms) and finishes work under both chaos compositions; and
// admission sheds past capacity (79 at 1.5x).
func claimServing(t *testing.T, r ServingResult) {
	t.Helper()
	if r.CapacityRPS <= 0 || r.SLO <= 0 || len(r.Points) != len(servingLoads)+2 {
		t.Fatalf("capacity %.1f req/s, SLO %v, %d points: want both positive and %d sweep + 2 chaos points",
			r.CapacityRPS, r.SLO, len(r.Points), len(servingLoads))
	}
	chaosSeen := 0
	for _, pt := range r.Points {
		for _, tn := range pt.Tenants {
			if tn.Arrived != tn.Admitted+tn.Shed || tn.Admitted != tn.Finished+tn.Failed {
				t.Errorf("%s/%s does not conserve requests: %+v", pt.Name, tn.Tenant, tn)
			}
		}
		if pt.Chaos != "" {
			chaosSeen++
			if pt.Tenant("inter").Finished == 0 {
				t.Errorf("%s: no interactive request finished under chaos", pt.Name)
			}
		}
	}
	low, mid, over := r.Points[0], r.Points[2], r.Points[len(servingLoads)-1]
	if chaosSeen != 2 || mid.Load != 0.75 || mid.Chaos != "" || over.Load <= 1 {
		t.Fatalf("want 2 chaos points, a chaos-free 0.75x third point and an overload last sweep point: %d, %+v, %+v", chaosSeen, mid, over)
	}
	if a := low.Tenant("inter").Attainment; a < 0.99 || r.KneeLoad < low.Load {
		t.Errorf("interactive attainment %.3f at %.2fx, knee %.2f: want >= 0.99 and the knee no lower", a, low.Load, r.KneeLoad)
	}
	if p99 := mid.Tenant("inter").P99; p99 <= 0 || p99 > r.SLO {
		t.Errorf("interactive p99 %v at 0.75x capacity, want within the SLO %v", p99, r.SLO)
	}
	if over.TotalShed == 0 {
		t.Errorf("no shedding at %.2fx capacity", over.Load)
	}
}

// Tail tolerance: against one fail-slow device of four, hedging, a deadline
// and health scoring improve p99 at least 2x (5.31x), with hedges issued
// (26) and the device quarantined (2), neither in the baseline; both runs
// conserve requests and finish some.
func claimTailHeadline(t *testing.T, r TailResult) {
	t.Helper()
	if r.P99Improvement < 2 || r.Tolerant.HedgeIssued == 0 || r.Tolerant.Quarantines == 0 {
		t.Errorf("p99 improvement %.2fx (baseline %v, tolerant %v), %d hedges, %d quarantines: want >= 2x with both",
			r.P99Improvement, r.Baseline.P99, r.Tolerant.P99, r.Tolerant.HedgeIssued, r.Tolerant.Quarantines)
	}
	if r.Baseline.HedgeIssued != 0 || r.Baseline.Quarantines != 0 {
		t.Errorf("baseline ran with tail tolerance enabled: %+v", r.Baseline)
	}
	for _, p := range []TailPoint{r.Baseline, r.Tolerant} {
		if p.Arrived != p.Admitted+p.Shed || p.Admitted != p.Finished+p.Failed || p.Finished == 0 {
			t.Errorf("%s does not conserve requests or finished nothing: %+v", p.Name, p)
		}
	}
}

// Retry storm: attempts and outcomes add up, the budgeted run stays inside
// its token bucket (10 tokens + 0.1 per success + one in-flight grant) and
// hits it dry (74 denials), and the unbudgeted run, never denied, retries at
// least twice as often (191 against 18).
func claimTailStorm(t *testing.T, r TailResult) {
	t.Helper()
	if len(r.Storm) != 2 || r.Storm[0].Mode != "unbudgeted" || r.Storm[1].Mode != "budgeted" {
		t.Fatalf("want the unbudgeted then the budgeted storm: %+v", r.Storm)
	}
	unbudgeted, budgeted := r.Storm[0], r.Storm[1]
	for _, p := range r.Storm {
		if p.Retries != p.Attempts-p.Requests || p.Successes+p.Failures != p.Requests {
			t.Errorf("%s storm does not add up: %+v", p.Mode, p)
		}
	}
	if bound := budgeted.BudgetCap + 0.1*float64(budgeted.Successes) + 1; float64(budgeted.Retries) > bound || budgeted.BudgetDenied == 0 {
		t.Errorf("budgeted storm: %d retries against a bound of %.1f, %d denials; want within it and > 0", budgeted.Retries, bound, budgeted.BudgetDenied)
	}
	if unbudgeted.BudgetDenied != 0 || unbudgeted.Retries < 2*budgeted.Retries {
		t.Errorf("unbudgeted storm: %d denials, %d retries against %d budgeted; want none and >= 2x", unbudgeted.BudgetDenied, unbudgeted.Retries, budgeted.Retries)
	}
}

// One named test per claim, so a failure names the paper's claim it
// breaks. Each reads the row's first run, the one TestRegistry checks, and
// runs after it, so no claim costs a rerun; each also checks that the
// row's render names what it measured.

func TestTable3LifetimeOrdered(t *testing.T) {
	t.Parallel()
	claimTable3(t, rowReport[Table3Result](t, "table3", "minion"))
}

func TestFig1ShapesHold(t *testing.T) {
	t.Parallel()
	claimFig1(t, rowReport[Fig1Result](t, "fig1", "mismatch"))
}

func TestFig6ScalesNearLinearly(t *testing.T) {
	t.Parallel()
	claimFig6(t, rowReport[Fig6Result](t, "fig6", "grep"))
}

func TestFig7HostFlatDevicesGrow(t *testing.T) {
	t.Parallel()
	claimFig7(t, rowReport[Fig7Result](t, "fig7", "bzip2"))
}

func TestFig8EnergyShape(t *testing.T) {
	t.Parallel()
	claimFig8(t, rowReport[Fig8Result](t, "fig8", "J/GB"))
}

func TestInterferenceAblation(t *testing.T) {
	t.Parallel()
	claimInterference(t, rowReport[InterferenceResult](t, "ablations", "dedicated"))
}

func TestStripingAblation(t *testing.T) {
	t.Parallel()
	claimStriping(t, rowReport[StripingResult](t, "ablations", "striped"))
}

func TestDirectPathAblation(t *testing.T) {
	t.Parallel()
	claimDirectPath(t, rowReport[DirectPathResult](t, "ablations", "direct"))
}

func TestDegradedKeepsResultsAndReportsSlowdown(t *testing.T) {
	t.Parallel()
	claimDegraded(t, rowReport[DegradedResult](t, "degraded", "Degraded mode"))
}

func TestRecoveryIntervalsBoundReplay(t *testing.T) {
	t.Parallel()
	claimRecoveryIntervals(t, rowReport[RecoveryResult](t, "recovery"))
}

func TestRecoveryScanScalesWithMedia(t *testing.T) {
	t.Parallel()
	claimRecoveryScan(t, rowReport[RecoveryResult](t, "recovery"))
}

func TestRenderRecovery(t *testing.T) {
	t.Parallel()
	rowReport[RecoveryResult](t, "recovery", "checkpoint interval", "scan cost", "never")
}

func TestPipelineSpeedupAndFidelity(t *testing.T) {
	t.Parallel()
	claimPipeline(t, rowReport[ScaleupResult](t, "scaleup"))
}

func TestScaleupSpeedupAndFidelity(t *testing.T) {
	t.Parallel()
	claimScaleup(t, rowReport[ScaleupResult](t, "scaleup"))
}

func TestServingKneeAndShedding(t *testing.T) {
	t.Parallel()
	claimServing(t, rowReport[ServingResult](t, "serving"))
}

func TestTailHeadline(t *testing.T) {
	t.Parallel()
	claimTailHeadline(t, rowReport[TailResult](t, "tail"))
}

func TestTailRetryStormBounded(t *testing.T) {
	t.Parallel()
	claimTailStorm(t, rowReport[TailResult](t, "tail"))
}
