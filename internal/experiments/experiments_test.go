package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"compstor/internal/core"
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

// fig7Point stops at a failed task instead of timing it: with a program
// installed on neither side, the point panics with the failure.
func TestFig7PointPanicsOnFailedTasks(t *testing.T) {
	w := Workload{Name: "nosuch", Dataset: identityDataset, Command: func(name string) core.Command {
		return core.Command{Exec: "nosuch", Args: []string{name}}
	}}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "nosuch") {
			t.Fatalf("fig7Point recovered %v; want a panic naming the failed program", r)
		}
	}()
	pt := tinyOptions().fig7Point(1, w)
	t.Errorf("fig7Point returned %+v", pt)
}
