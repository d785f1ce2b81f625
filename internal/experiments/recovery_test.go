package experiments

import (
	"strings"
	"testing"
)

// tinyRecoveryOptions shrinks the remount sweeps to unit-test scale.
func tinyRecoveryOptions() Options {
	o := tinyOptions()
	o.Geometry.Channels = 4
	o.Geometry.DiesPerChan = 1
	return o
}

func TestRecoveryIntervalsBoundReplay(t *testing.T) {
	pts := RecoveryIntervals(tinyRecoveryOptions())
	if len(pts) < 3 {
		t.Fatalf("%d points", len(pts))
	}
	base := pts[0] // CheckpointEvery = -1: pure scan, no checkpoint
	if base.CheckpointFound {
		t.Fatal("checkpoint found with checkpointing disabled")
	}
	if base.RecoveredPages == 0 {
		t.Fatal("baseline recovered nothing")
	}
	asserted := 0
	for _, pt := range pts[1:] {
		if pt.CheckpointEvery > pt.Writes/2 {
			continue // interval too wide for this workload to ever checkpoint
		}
		asserted++
		if !pt.CheckpointFound {
			t.Errorf("interval %d: no checkpoint found", pt.CheckpointEvery)
		}
		if pt.RecoveredPages != base.RecoveredPages {
			t.Errorf("interval %d: recovered %d pages, scan baseline %d — the interval must not change the recovered state",
				pt.CheckpointEvery, pt.RecoveredPages, base.RecoveredPages)
		}
		if pt.ReplayedWrites >= base.ReplayedWrites {
			t.Errorf("interval %d: replayed %d >= scan baseline %d — checkpoint bounded nothing",
				pt.CheckpointEvery, pt.ReplayedWrites, base.ReplayedWrites)
		}
		if pt.RemountTime >= base.RemountTime {
			t.Errorf("interval %d: remount %v not faster than scan baseline %v",
				pt.CheckpointEvery, pt.RemountTime, base.RemountTime)
		}
	}
	if asserted == 0 {
		t.Fatal("no interval was small enough to checkpoint; sweep is miscalibrated")
	}
}

func TestRecoveryScanScalesWithMedia(t *testing.T) {
	pts := RecoveryScanScaling(tinyRecoveryOptions())
	for i := 1; i < len(pts); i++ {
		if pts[i].MediaMB <= pts[i-1].MediaMB {
			t.Fatalf("media sizes not increasing: %+v", pts)
		}
		if pts[i].ScannedPages <= pts[i-1].ScannedPages {
			t.Errorf("scan did not grow with media: %d pages at %.0f MB, %d at %.0f MB",
				pts[i-1].ScannedPages, pts[i-1].MediaMB, pts[i].ScannedPages, pts[i].MediaMB)
		}
	}
}

func TestRenderRecovery(t *testing.T) {
	o := tinyRecoveryOptions()
	var sb strings.Builder
	Recovery(o).Render(&sb)
	out := sb.String()
	for _, want := range []string{"checkpoint interval", "scan cost", "never"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
