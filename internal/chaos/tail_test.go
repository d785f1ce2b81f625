package chaos_test

import (
	"reflect"
	"testing"
	"time"

	"compstor/internal/apps/appset"
	"compstor/internal/chaos"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/flash"
	"compstor/internal/sim"
)

// Tests for the tail-tolerance fault family: fail-slow windows, flapping,
// latency spikes — and the plan-level guarantees the experiments lean on
// (zero intensity injects nothing; every fault schedule is a pure function
// of its seed).

// TestZeroIntensityPlanInjectsNothing: an installed plan at intensity 0 is
// an observer, not a participant — zero faults delivered, results and the
// virtual clock identical to running with no plan at all.
func TestZeroIntensityPlanInjectsNothing(t *testing.T) {
	files := corpus(10)
	base := run(t, 3, files, nil)
	if base.runErr != nil || len(base.failed) > 0 {
		t.Fatalf("baseline: err=%v failed=%v", base.runErr, base.failed)
	}
	quiet := run(t, 3, files, randomPlan(9, 3, 0))
	if quiet.stats != (chaos.Stats{}) {
		t.Fatalf("intensity-0 plan delivered faults: %+v", quiet.stats)
	}
	if !reflect.DeepEqual(quiet.outputs, base.outputs) {
		t.Fatal("intensity-0 outputs differ from the plan-free run")
	}
	if quiet.finalAt != base.finalAt {
		t.Fatalf("intensity-0 run ended at %v, plan-free at %v", quiet.finalAt, base.finalAt)
	}
}

// TestFailSlowWindowDeterministic: a fail-slow device is slow, not wrong —
// same results, a later clock, zero device deaths — and the whole schedule
// replays identically from its seed.
func TestFailSlowWindowDeterministic(t *testing.T) {
	files := corpus(12)
	base := run(t, 2, files, nil)
	if base.runErr != nil || len(base.failed) > 0 {
		t.Fatalf("baseline: err=%v failed=%v", base.runErr, base.failed)
	}
	fb := base.finalAt.Duration()
	plan := func() *chaos.Plan {
		return chaos.NewPlan(11).WithDevice(0, chaos.DeviceFaults{
			FailSlowAt: fb / 4, FailSlowFor: fb / 2, FailSlowFactor: 20,
		})
	}
	r1 := run(t, 2, files, plan())
	if r1.runErr != nil || len(r1.failed) > 0 {
		t.Fatalf("fail-slow run: err=%v failed=%v", r1.runErr, r1.failed)
	}
	if r1.stats.FailSlowWaits == 0 {
		t.Fatal("fail-slow window injected no waits")
	}
	if len(r1.dead) != 0 {
		t.Fatalf("fail-slow (gray, not dead) killed devices %v", r1.dead)
	}
	if r1.finalAt <= base.finalAt {
		t.Fatalf("fail-slow run ended at %v, not after the baseline's %v", r1.finalAt, base.finalAt)
	}
	if !reflect.DeepEqual(r1.outputs, base.outputs) {
		t.Fatal("fail-slow changed grep results")
	}
	r2 := run(t, 2, files, plan())
	if r1.finalAt != r2.finalAt || r1.stats != r2.stats || r1.attempts != r2.attempts {
		t.Fatalf("fail-slow replay diverged: %v/%+v/%d vs %v/%+v/%d",
			r1.finalAt, r1.stats, r1.attempts, r2.finalAt, r2.stats, r2.attempts)
	}
}

// TestFlapDeterministicAndAbsorbed: a flapping device refuses commands in
// its down phases; failover keeps every file's result, and the flap
// schedule replays identically from its seed.
func TestFlapDeterministicAndAbsorbed(t *testing.T) {
	files := corpus(12)
	base := run(t, 3, files, nil)
	if base.runErr != nil || len(base.failed) > 0 {
		t.Fatalf("baseline: err=%v failed=%v", base.runErr, base.failed)
	}
	fb := base.finalAt.Duration()
	// Start flapping mid-run (inside the map window, like the kill tests)
	// with down phases long enough to catch retries mid-backoff.
	plan := func() *chaos.Plan {
		return chaos.NewPlan(13).WithDevice(0, chaos.DeviceFaults{
			FlapAt: fb / 2, FlapUp: fb / 20, FlapDown: fb / 5,
		})
	}
	r1 := run(t, 3, files, plan())
	if r1.runErr != nil {
		t.Fatalf("flap run error: %v", r1.runErr)
	}
	if r1.stats.FlapRejects == 0 {
		t.Fatal("flapping device rejected nothing")
	}
	if len(r1.failed) > 0 {
		t.Fatalf("failover lost files under flapping: %v", r1.failed)
	}
	if !reflect.DeepEqual(r1.outputs, base.outputs) {
		t.Fatal("flapping changed grep results")
	}
	r2 := run(t, 3, files, plan())
	if r1.finalAt != r2.finalAt || r1.stats != r2.stats || r1.attempts != r2.attempts {
		t.Fatalf("flap replay diverged: %v/%+v/%d vs %v/%+v/%d",
			r1.finalAt, r1.stats, r1.attempts, r2.finalAt, r2.stats, r2.attempts)
	}
}

// TestSpikesDeterministic: latency spikes delay commands without changing
// results, and the spike draw replays identically from the plan seed.
func TestSpikesDeterministic(t *testing.T) {
	files := corpus(10)
	base := run(t, 2, files, nil)
	if base.runErr != nil || len(base.failed) > 0 {
		t.Fatalf("baseline: err=%v failed=%v", base.runErr, base.failed)
	}
	plan := func() *chaos.Plan {
		return chaos.NewPlan(17).WithDefault(chaos.DeviceFaults{
			SpikeProb: 0.3, SpikeDelay: 2 * time.Millisecond,
		})
	}
	r1 := run(t, 2, files, plan())
	if r1.runErr != nil || len(r1.failed) > 0 {
		t.Fatalf("spike run: err=%v failed=%v", r1.runErr, r1.failed)
	}
	if r1.stats.Spikes == 0 {
		t.Fatal("no spikes delivered at SpikeProb=0.3")
	}
	if !reflect.DeepEqual(r1.outputs, base.outputs) {
		t.Fatal("spikes changed grep results")
	}
	if r1.finalAt <= base.finalAt {
		t.Fatalf("spiked run ended at %v, not after the baseline's %v", r1.finalAt, base.finalAt)
	}
	r2 := run(t, 2, files, plan())
	if r1.finalAt != r2.finalAt || r1.stats != r2.stats {
		t.Fatalf("spike replay diverged: %v/%+v vs %v/%+v", r1.finalAt, r1.stats, r2.finalAt, r2.stats)
	}
}

// TestUninstallClearsTailFaultHooks: Uninstall must silence the new fault
// family too — after it, a second workload on the same system delivers not
// one more fail-slow wait, flap reject, or spike.
func TestUninstallClearsTailFaultHooks(t *testing.T) {
	sys := core.NewSystem(core.SystemConfig{
		CompStors: 1,
		Registry:  appset.Base(),
		Geometry: flash.Geometry{
			Channels: 8, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 128, PagesPerBlock: 32, PageSize: 4096,
		},
	})
	pool := cluster.NewPool(sys.Eng, sys.Devices)
	inj := chaos.Install(sys, chaos.NewPlan(19).WithDefault(chaos.DeviceFaults{
		FailSlowAt: 1, FailSlowFactor: 30,
		SpikeProb: 0.5, SpikeDelay: time.Millisecond,
	}))
	var during, after chaos.Stats
	sys.Go("driver", func(p *sim.Proc) {
		staged, err := pool.Stage(p, cluster.Shard(corpus(2), 1))
		if err != nil {
			t.Error(err)
			return
		}
		for _, r := range pool.MapFiles(p, staged, grepCmd) {
			if r.Err != nil {
				t.Errorf("faulted run failed on %s: %v", r.Name, r.Err)
			}
		}
		during = inj.Stats()
		inj.Uninstall()
		for _, r := range pool.MapFiles(p, staged, grepCmd) {
			if r.Err != nil {
				t.Errorf("post-uninstall run failed on %s: %v", r.Name, r.Err)
			}
		}
		after = inj.Stats()
	})
	sys.Run()
	if during.FailSlowWaits == 0 || during.Spikes == 0 {
		t.Fatalf("faulted run delivered nothing: %+v", during)
	}
	if after != during {
		t.Fatalf("faults delivered after Uninstall: %+v then %+v", during, after)
	}
}
