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

func TestPaperScaleIs348Books(t *testing.T) {
	if PaperScaleOptions().Books != 348 {
		t.Fatal("the paper-scale corpus should mirror the paper's 348 files")
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

func TestDegradedSkipsSingleDevice(t *testing.T) {
	o := tinyOptions()
	o.DeviceCounts = []int{1}
	if pts := Degraded(o); len(pts) != 0 {
		t.Fatalf("single-device config produced %d points; there is no survivor to measure", len(pts))
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
