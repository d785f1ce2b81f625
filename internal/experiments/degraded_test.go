package experiments

import (
	"strings"
	"testing"
)

func TestDegradedKeepsResultsAndReportsSlowdown(t *testing.T) {
	o := tinyOptions()
	o.DeviceCounts = []int{4}
	pts := Degraded(o)
	if len(pts) != 1 {
		t.Fatalf("%d points, want 1", len(pts))
	}
	pt := pts[0]
	if !pt.ResultsMatch {
		t.Error("degraded outputs differ from the healthy run")
	}
	if len(pt.DeadDevices) != 1 || pt.DeadDevices[0] != 0 {
		t.Errorf("dead devices %v, want [0]", pt.DeadDevices)
	}
	if pt.DegradedMBps <= 0 || pt.HealthyMBps <= 0 {
		t.Errorf("non-positive throughput: healthy %v degraded %v", pt.HealthyMBps, pt.DegradedMBps)
	}
	if pt.DegradedMBps >= pt.HealthyMBps {
		t.Errorf("losing a device did not cost throughput: healthy %v degraded %v",
			pt.HealthyMBps, pt.DegradedMBps)
	}
	var sb strings.Builder
	pts.Render(&sb)
	if !strings.Contains(sb.String(), "Degraded mode") {
		t.Error("render incomplete")
	}
}

func TestDegradedSkipsSingleDevice(t *testing.T) {
	o := tinyOptions()
	o.DeviceCounts = []int{1}
	if pts := Degraded(o); len(pts) != 0 {
		t.Fatalf("single-device config produced %d points; there is no survivor to measure", len(pts))
	}
}
