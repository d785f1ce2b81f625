package experiments

import "testing"

// TestPipelineSpeedupAndFidelity is the PR's acceptance gate: on a cold
// large-file in-situ scan the read pipeline must at least double grep's
// sim-time throughput while leaving every program's output byte-identical.
func TestPipelineSpeedupAndFidelity(t *testing.T) {
	pts := Pipeline(DefaultOptions())
	if len(pts) == 0 {
		t.Fatal("no pipeline points")
	}
	for _, pt := range pts {
		if !pt.OutputsMatch {
			t.Errorf("%s: pipelined output differs from stock", pt.Workload)
		}
		if pt.Speedup <= 1.0 {
			t.Errorf("%s: speedup %.2fx, pipeline made it slower", pt.Workload, pt.Speedup)
		}
		if pt.Cache.Hits == 0 || pt.Cache.PrefetchPages == 0 {
			t.Errorf("%s: pipeline never engaged: %+v", pt.Workload, pt.Cache)
		}
	}
	grep := pts[0]
	if grep.Workload != "grep" {
		t.Fatalf("first point is %s, want grep", grep.Workload)
	}
	// Measured ~2.6x; the floor leaves margin without letting a regression
	// to ~parity slip through.
	if grep.Speedup < 2.0 {
		t.Errorf("grep speedup %.2fx, want >= 2.0x", grep.Speedup)
	}
}
