package experiments

import (
	"testing"

	"compstor/internal/cpu"
)

// TestPipelineSpeedupAndFidelity: on a cold large-file in-situ scan the read
// pipeline must speed grep up by at least what dropping its read stall from
// the core charge is worth, 1/cpu.StreamCPUFraction(grep), while leaving
// every program's output byte-identical.
func TestPipelineSpeedupAndFidelity(t *testing.T) {
	pts := Pipeline(DefaultOptions())
	if len(pts) == 0 {
		t.Fatal("no pipeline points")
	}
	for _, pt := range pts {
		if !pt.OutputsMatch {
			t.Errorf("%s: pipelined output differs from serial", pt.Workload)
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
	// The serial side pays C+S, the pipelined one f*C = C-S once its reads
	// overlap: (1+s)/(1-s), 1.08x at the measured s = 0.04. 1/f is what is
	// left with no overlap at all.
	if floor := 1 / cpu.StreamCPUFraction(cpu.ClassGrep); grep.Speedup < floor {
		t.Errorf("grep speedup %.2fx, want >= %.2fx", grep.Speedup, floor)
	}
}
