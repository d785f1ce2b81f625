package experiments

import (
	"bytes"
	"strings"
	"testing"

	"compstor/internal/flash"
)

// tinyOptions keeps unit-test experiment runs fast.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Books = 12
	o.MeanBookBytes = 6 << 10
	o.DeviceCounts = []int{1, 2, 4}
	o.Geometry = flash.Geometry{
		Channels: 8, DiesPerChan: 4, PlanesPerDie: 1,
		BlocksPerPlan: 64, PagesPerBlock: 32, PageSize: 4096,
	}
	return o
}

func TestFig1ShapesHold(t *testing.T) {
	o := tinyOptions()
	o.DeviceCounts = []int{4}
	r := Fig1(o)
	// Paper quantities: 8.5 GB/s media per SSD, 545 GB/s server media,
	// 16 GB/s host, ~34x mismatch.
	if r.PerSSDMediaBW < 8e9 || r.PerSSDMediaBW > 9e9 {
		t.Errorf("per-SSD media %v", r.PerSSDMediaBW)
	}
	if r.ServerMediaBW < 500e9 || r.ServerMediaBW > 600e9 {
		t.Errorf("server media %v", r.ServerMediaBW)
	}
	if r.AnalyticFactor < 30 || r.AnalyticFactor > 40 {
		t.Errorf("analytic mismatch %v, want ~34x", r.AnalyticFactor)
	}
	if r.MeasuredInSituBW <= r.MeasuredHostBW {
		t.Errorf("in-situ scan (%v) not faster than host scan (%v)", r.MeasuredInSituBW, r.MeasuredHostBW)
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "mismatch") {
		t.Error("render incomplete")
	}
}

func TestFig6ScalesNearLinearly(t *testing.T) {
	o := tinyOptions()
	o.Books = 24
	series := Fig6(o, []string{"grep", "gzip"})
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if s.Failures > 0 {
			t.Fatalf("%s: %d failures", s.App, s.Failures)
		}
		// 1 -> 4 devices should speed up at least 2.5x at this scale.
		if sp := s.Speedup(); sp < 2.5 {
			t.Errorf("%s speedup %v over %v devices", s.App, sp, s.Devices)
		}
		for i := 1; i < len(s.MBps); i++ {
			if s.MBps[i] < s.MBps[i-1]*0.9 {
				t.Errorf("%s throughput regressed: %v", s.App, s.MBps)
			}
		}
	}
	var sb strings.Builder
	series.Render(&sb)
	if !strings.Contains(sb.String(), "grep") {
		t.Error("render incomplete")
	}
}

func TestFig7HostFlatDevicesGrow(t *testing.T) {
	o := tinyOptions()
	o.Books = 32
	o.MeanBookBytes = 16 << 10
	o.DeviceCounts = []int{1, 4}
	pts := Fig7(o)
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	first, last := pts[0], pts[1]
	if last.DevMBps < first.DevMBps*2 {
		t.Errorf("device aggregate did not grow: %+v", pts)
	}
	hostRatio := safeDiv(last.HostMBps, first.HostMBps)
	if hostRatio < 0.5 || hostRatio > 2.0 {
		t.Errorf("host throughput should stay roughly flat, ratio %v", hostRatio)
	}
	if last.TotalMBps <= first.TotalMBps {
		t.Errorf("total did not grow: %+v", pts)
	}
	var sb strings.Builder
	pts.Render(&sb)
	if !strings.Contains(sb.String(), "bzip2") {
		t.Error("render incomplete")
	}
}

func TestFig8EnergyShape(t *testing.T) {
	o := tinyOptions()
	o.Books = 8
	o.MeanBookBytes = 48 << 10 // large enough that compute dominates I/O floors
	rows := Fig8(o)
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.CompStorJPerGB <= 0 || r.XeonJPerGB <= 0 {
			t.Fatalf("%s: non-positive energy %+v", r.App, r)
		}
		// The paper's headline: CompStor wins on every app, up to ~3.3x.
		if r.Ratio < 1.2 {
			t.Errorf("%s: energy ratio %.2f — CompStor should win clearly", r.App, r.Ratio)
		}
		if r.Ratio > 5.0 {
			t.Errorf("%s: energy ratio %.2f — beyond the paper's envelope", r.App, r.Ratio)
		}
		// Within 2x of the paper's absolute J/GB (the substrate is a
		// simulator; shape matters, magnitude should still be close).
		if r.PaperCompStor > 0 {
			if rel := r.CompStorJPerGB / r.PaperCompStor; rel < 0.5 || rel > 2.0 {
				t.Errorf("%s: CompStor %.0f J/GB vs paper %.0f (off %.2fx)", r.App, r.CompStorJPerGB, r.PaperCompStor, rel)
			}
			if rel := r.XeonJPerGB / r.PaperXeon; rel < 0.5 || rel > 2.0 {
				t.Errorf("%s: Xeon %.0f J/GB vs paper %.0f (off %.2fx)", r.App, r.XeonJPerGB, r.PaperXeon, rel)
			}
		}
	}
	var sb strings.Builder
	rows.Render(&sb)
	if !strings.Contains(sb.String(), "J/GB") {
		t.Error("render incomplete")
	}
}

func TestTablesRender(t *testing.T) {
	var sb bytes.Buffer
	Table1{}.Render(&sb)
	Table2{}.Render(&sb)
	Table4{}.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Biscuit", "CompStor", "A53", "8GB DDR4", "Xeon", "32 GB DDR4"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q", want)
		}
	}
}

func TestTable3LifetimeOrdered(t *testing.T) {
	var sb bytes.Buffer
	steps := Table3(tinyOptions(), &sb)
	if len(steps) != 6 {
		t.Fatalf("%d steps", len(steps))
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].At < steps[i-1].At {
			t.Fatalf("steps out of order: %+v", steps)
		}
	}
	if !strings.Contains(sb.String(), "minion") {
		t.Error("render incomplete")
	}
}

func TestInterferenceAblation(t *testing.T) {
	o := tinyOptions()
	r := AblationInterference(o)
	if r.BaselineReads == 0 || r.DedicatedReads == 0 || r.SharedReads == 0 {
		t.Fatalf("no reads measured: %+v", r)
	}
	// The paper's claim: dedicated hardware leaves read performance
	// (nearly) unchanged; shared cores degrade it visibly.
	if r.DedicatedSlowdown > 1.5 {
		t.Errorf("dedicated ISPS slowed reads %.2fx; claim violated", r.DedicatedSlowdown)
	}
	if r.SharedSlowdown < r.DedicatedSlowdown*1.2 {
		t.Errorf("shared cores (%.2fx) not clearly worse than dedicated (%.2fx)",
			r.SharedSlowdown, r.DedicatedSlowdown)
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "dedicated") {
		t.Error("render incomplete")
	}
}

func TestStripingAblation(t *testing.T) {
	r := AblationStriping(tinyOptions())
	if r.StripedMBps <= r.LinearMBps {
		t.Fatalf("striping (%v MB/s) not faster than linear (%v MB/s)", r.StripedMBps, r.LinearMBps)
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "striped") {
		t.Error("render incomplete")
	}
}

func TestDirectPathAblation(t *testing.T) {
	o := tinyOptions()
	o.Books = 6
	r := AblationDirectPath(o)
	if r.DirectMBps <= r.ViaMBps {
		t.Fatalf("direct path (%v) not faster than loopback (%v)", r.DirectMBps, r.ViaMBps)
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "direct") {
		t.Error("render incomplete")
	}
}

func TestWorkloadLookup(t *testing.T) {
	if _, err := WorkloadByName("grep"); err != nil {
		t.Fatal(err)
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if len(Workloads()) != 6 {
		t.Fatal("expected the paper's six applications")
	}
}
