package experiments

import (
	"testing"
)

// TestSimulationIsDeterministic: two identical runs of a full multi-device
// experiment must produce bit-identical timings and energies. This is the
// property that makes every number in EXPERIMENTS.md reproducible.
func TestSimulationIsDeterministic(t *testing.T) {
	o := tinyOptions()
	o.Books = 10
	w, err := WorkloadByName("grep")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (elapsed int64, energy float64) {
		r := RunPool(o, 2, w)
		return int64(r.Elapsed), r.Joules
	}
	e1, j1 := run()
	e2, j2 := run()
	if e1 != e2 {
		t.Fatalf("elapsed differs across identical runs: %d vs %d ns", e1, e2)
	}
	if j1 != j2 {
		t.Fatalf("energy differs across identical runs: %g vs %g J", j1, j2)
	}
}

// TestHostRunDeterministic: same for the host baseline.
func TestHostRunDeterministic(t *testing.T) {
	o := tinyOptions()
	o.Books = 6
	w, err := WorkloadByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	a := RunHost(o, w)
	b := RunHost(o, w)
	if a != b {
		t.Fatalf("host runs differ: %+v vs %+v", a, b)
	}
}

// TestReportsExported: the cmd-facing summaries carry consistent numbers.
func TestReportsExported(t *testing.T) {
	o := tinyOptions()
	o.Books = 6
	w, _ := WorkloadByName("grep")
	rep := RunPool(o, 1, w)
	if rep.Failures != 0 {
		t.Fatalf("failures: %d", rep.Failures)
	}
	if rep.MBps() <= 0 || rep.JPerGB() <= 0 || rep.PlainBytes <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	hr := RunHost(o, w)
	if hr.MBps() <= 0 || hr.JPerGB() <= 0 {
		t.Fatalf("host report: %+v", hr)
	}
	// The energy story must hold at any scale: host J/GB > device J/GB.
	if hr.JPerGB() <= rep.JPerGB() {
		t.Fatalf("host %g J/GB <= device %g J/GB", hr.JPerGB(), rep.JPerGB())
	}
}
