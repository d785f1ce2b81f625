package chaos_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"compstor/internal/apps/appset"
	"compstor/internal/chaos"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/flash"
	"compstor/internal/sim"
	"compstor/internal/ssd"
)

// randomPlan derives a randomized-but-seeded plan for n devices: fault
// probabilities and slowdowns are drawn from the seed, scaled by intensity
// in [0, 1]. The same (seed, n, intensity) always yields the same plan, so
// a sweep over seeds explores distinct deterministic schedules.
func randomPlan(seed int64, n int, intensity float64) *chaos.Plan {
	if intensity < 0 {
		intensity = 0
	}
	if intensity > 1 {
		intensity = 1
	}
	rng := rand.New(rand.NewSource(seed))
	pl := chaos.NewPlan(seed)
	for i := 0; i < n; i++ {
		pl.WithDevice(i, chaos.DeviceFaults{
			ReadErrProb:    intensity * 0.05 * rng.Float64(),
			ProgramErrProb: intensity * 0.02 * rng.Float64(),
			DropProb:       intensity * 0.10 * rng.Float64(),
			FailSlowFactor: 1 + intensity*3*rng.Float64(),
		})
	}
	return pl
}

// corpus builds the grep workload's input set: text files that all contain
// the pattern, sized unevenly so sharding and failover move real bytes.
func corpus(n int) []cluster.File {
	var out []cluster.File
	for i := 0; i < n; i++ {
		line := fmt.Sprintf("line %d with the searched words in the middle\n", i)
		out = append(out, cluster.File{
			Name: fmt.Sprintf("books/book%03d.txt", i),
			Data: []byte(strings.Repeat(line, 40*(i%5+1))),
		})
	}
	return out
}

func grepCmd(name string) core.Command {
	return core.Command{Exec: "grep", Args: []string{"-c", "the", name}}
}

// runResult is everything a chaos run produces that the suite asserts on.
type runResult struct {
	outputs  map[string]string // file -> grep stdout, successful tasks only
	failed   []string          // files whose final result was an error
	dead     []int             // devices the pool declared dead
	finalAt  sim.Time          // final virtual time of the whole run
	runErr   error             // MapFilesFT error
	attempts int               // total attempts across all tasks
	stats    chaos.Stats
	psTasks  int64 // split-scan tasks executed, summed across devices
}

// run executes the Fig-7-style grep scatter/gather over `devices` stock
// CompStors under the given plan (nil = fault-free) and returns the
// observables.
func run(t *testing.T, devices int, files []cluster.File, plan *chaos.Plan) runResult {
	t.Helper()
	return runWith(t, devices, files, plan, false)
}

// runWith is run with the streaming read pipeline toggled, so the chaos
// scenarios cover the cached+prefetched read path as well as the stock one.
func runWith(t *testing.T, devices int, files []cluster.File, plan *chaos.Plan, pipeline bool) runResult {
	t.Helper()
	return runMode(t, devices, files, plan, pipeline, 0)
}

// runMode is runWith plus the ISPS executor: scanChunks 0 is the stock
// split scan, 1 the paper's one-core-per-task executor.
func runMode(t *testing.T, devices int, files []cluster.File, plan *chaos.Plan, pipeline bool, scanChunks int) runResult {
	t.Helper()
	return runCmd(t, devices, files, plan, pipeline, scanChunks, grepCmd)
}

// runCmd is runMode with makeCmd in place of grep.
func runCmd(t *testing.T, devices int, files []cluster.File, plan *chaos.Plan, pipeline bool, scanChunks int, makeCmd func(string) core.Command) runResult {
	t.Helper()
	cfg := core.SystemConfig{
		CompStors: devices,
		Registry:  appset.Base(),
		Geometry: flash.Geometry{
			Channels: 8, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 128, PagesPerBlock: 32, PageSize: 4096,
		},
		Ablation: ssd.Ablation{SerialReads: !pipeline, ScanChunks: scanChunks},
	}
	sys := core.NewSystem(cfg)
	pool := cluster.NewPool(sys.Eng, sys.Devices)
	res := runResult{outputs: make(map[string]string)}
	var inj *chaos.Injector
	if plan != nil {
		inj = chaos.Install(sys, plan)
	}
	sys.Go("driver", func(p *sim.Proc) {
		results, err := pool.MapFilesFT(p, files, makeCmd)
		res.runErr = err
		for _, r := range results {
			res.attempts += r.Attempts
			if r.Err == nil && r.Resp != nil && r.Resp.Status == core.StatusOK {
				res.outputs[r.Name] = string(r.Resp.Stdout)
			} else {
				res.failed = append(res.failed, r.Name)
			}
		}
		res.dead = pool.DeadDevices()
	})
	res.finalAt = sys.Run()
	if inj != nil {
		res.stats = inj.Stats()
	}
	for _, d := range sys.Devices {
		if sub := d.Drive.ISPS(); sub != nil {
			res.psTasks += sub.ParScanStats().Tasks
		}
	}
	return res
}

// killPlan kills one of the four devices mid-run and stresses the three
// survivors with transient media errors, drops, and a slowdown.
func killPlan(seed int64, failAt time.Duration) *chaos.Plan {
	return killPlanPerPage(seed, failAt, 1)
}

// killPlanPerPage is killPlan with its per-page media-error rates scaled by
// rate, for corpora whose files span many more pages.
func killPlanPerPage(seed int64, failAt time.Duration, rate float64) *chaos.Plan {
	return chaos.NewPlan(seed).
		WithDevice(0, chaos.DeviceFaults{ReadErrProb: 0.01 * rate, DropProb: 0.15}).
		WithDevice(1, chaos.DeviceFaults{FailSlowFactor: 3, DropProb: 0.1}).
		WithDevice(2, chaos.DeviceFaults{FailAt: failAt, ReadErrProb: 0.005 * rate}).
		WithDevice(3, chaos.DeviceFaults{ProgramErrProb: 0.005 * rate, DropProb: 0.1})
}

// failAtMidRun returns a virtual time inside the fault-free run's map
// window, so the killed device has tasks both finished and unfinished.
func failAtMidRun(t *testing.T, devices int, files []cluster.File) time.Duration {
	base := run(t, devices, files, nil)
	if base.runErr != nil || len(base.failed) > 0 {
		t.Fatalf("fault-free run not clean: err=%v failed=%v", base.runErr, base.failed)
	}
	return base.finalAt.Duration() / 2
}

// TestKilledDeviceDoesNotChangeResults is the acceptance scenario: under a
// seeded plan that kills a device mid-run, MapFilesFT must return the same
// aggregate results as the fault-free baseline. grep kills 1 of 4 devices
// whose survivors also see transient faults; gzip writes its output back,
// so a task on 1 of 2 devices can fail on the dead media just as the other
// workers' strikes declare that device dead.
func TestKilledDeviceDoesNotChangeResults(t *testing.T) {
	gzipCmd := func(name string) core.Command { return core.Command{Exec: "gzip", Args: []string{name}} }
	for _, tc := range []struct {
		name    string
		devices int
		makeCmd func(string) core.Command
		plan    func(failAt time.Duration) *chaos.Plan
		dead    int
	}{
		{"grep", 4, grepCmd, func(at time.Duration) *chaos.Plan { return killPlan(7, at) }, 2},
		{"gzip", 2, gzipCmd, func(at time.Duration) *chaos.Plan {
			return chaos.NewPlan(7).WithDevice(0, chaos.DeviceFaults{FailAt: at})
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := corpus(24)
			baseline := runCmd(t, tc.devices, files, nil, false, 0, tc.makeCmd)
			if baseline.runErr != nil || len(baseline.failed) > 0 {
				t.Fatalf("baseline: err=%v failed=%v", baseline.runErr, baseline.failed)
			}
			if len(baseline.outputs) != len(files) {
				t.Fatalf("baseline covered %d/%d files", len(baseline.outputs), len(files))
			}

			faulty := runCmd(t, tc.devices, files, tc.plan(baseline.finalAt.Duration()/2), false, 0, tc.makeCmd)
			if faulty.runErr != nil {
				t.Fatalf("chaos run error: %v", faulty.runErr)
			}
			if len(faulty.failed) > 0 {
				t.Fatalf("chaos run lost files: %v", faulty.failed)
			}
			if len(faulty.outputs) != len(baseline.outputs) {
				t.Fatalf("chaos covered %d files, baseline %d", len(faulty.outputs), len(baseline.outputs))
			}
			for name, want := range baseline.outputs {
				if got := faulty.outputs[name]; got != want {
					t.Errorf("%s: chaos output %q, baseline %q", name, got, want)
				}
			}
			if len(faulty.dead) != 1 || faulty.dead[0] != tc.dead {
				t.Errorf("dead devices %v, want [%d]", faulty.dead, tc.dead)
			}
			if faulty.attempts <= len(files) {
				t.Errorf("attempts %d implies no retries happened", faulty.attempts)
			}
			if faulty.finalAt <= baseline.finalAt {
				t.Errorf("degraded run (%v) not slower than baseline (%v)", faulty.finalAt, baseline.finalAt)
			}
		})
	}
}

// TestSameSeedSameVirtualTrace: two runs with the same seed must produce
// identical final virtual times, fault counts, and outputs; a different
// seed must produce an observably different schedule.
func TestSameSeedSameVirtualTrace(t *testing.T) {
	files := corpus(16)
	failAt := failAtMidRun(t, 4, files)

	a := run(t, 4, files, killPlan(1234, failAt))
	b := run(t, 4, files, killPlan(1234, failAt))
	if a.finalAt != b.finalAt {
		t.Fatalf("same seed, different final times: %v vs %v", a.finalAt, b.finalAt)
	}
	if a.stats != b.stats {
		t.Fatalf("same seed, different fault schedules: %+v vs %+v", a.stats, b.stats)
	}
	if a.attempts != b.attempts {
		t.Fatalf("same seed, different attempt counts: %d vs %d", a.attempts, b.attempts)
	}
	if len(a.outputs) != len(b.outputs) {
		t.Fatalf("same seed, different coverage: %d vs %d", len(a.outputs), len(b.outputs))
	}
	for name, out := range a.outputs {
		if b.outputs[name] != out {
			t.Fatalf("same seed, %s differs: %q vs %q", name, out, b.outputs[name])
		}
	}

	c := run(t, 4, files, killPlan(4321, failAt))
	if c.finalAt == a.finalAt && c.stats == a.stats {
		t.Errorf("different seed produced an identical run (time %v, stats %+v)", c.finalAt, c.stats)
	}
}

// TestPipelineUnderChaosMatchesFaultFree: with the streaming read pipeline
// enabled, a chaos run that kills a device and peppers the survivors with
// transient faults must still produce the stock fault-free answers — cache
// invalidation under failover and device death never changes results. Same
// seed twice must also replay identically, prefetch procs included.
func TestPipelineUnderChaosMatchesFaultFree(t *testing.T) {
	files := corpus(24)
	baseline := run(t, 4, files, nil) // stock path, fault-free: ground truth
	if baseline.runErr != nil || len(baseline.failed) > 0 {
		t.Fatalf("baseline: err=%v failed=%v", baseline.runErr, baseline.failed)
	}

	clean := runWith(t, 4, files, nil, true)
	if clean.runErr != nil || len(clean.failed) > 0 {
		t.Fatalf("pipelined fault-free run: err=%v failed=%v", clean.runErr, clean.failed)
	}
	if clean.finalAt >= baseline.finalAt {
		t.Errorf("pipelined run (%v) not faster than stock (%v)", clean.finalAt, baseline.finalAt)
	}

	failAt := clean.finalAt.Duration() / 2
	faulty := runWith(t, 4, files, killPlan(7, failAt), true)
	if faulty.runErr != nil || len(faulty.failed) > 0 {
		t.Fatalf("pipelined chaos run: err=%v failed=%v", faulty.runErr, faulty.failed)
	}
	for name, want := range baseline.outputs {
		if clean.outputs[name] != want {
			t.Errorf("%s: pipelined output %q, stock %q", name, clean.outputs[name], want)
		}
		if faulty.outputs[name] != want {
			t.Errorf("%s: pipelined chaos output %q, stock %q", name, faulty.outputs[name], want)
		}
	}
	if len(faulty.dead) != 1 || faulty.dead[0] != 2 {
		t.Errorf("dead devices %v, want [2]", faulty.dead)
	}

	again := runWith(t, 4, files, killPlan(7, failAt), true)
	if again.finalAt != faulty.finalAt || again.stats != faulty.stats || again.attempts != faulty.attempts {
		t.Errorf("same seed diverged: %v/%+v/%d vs %v/%+v/%d",
			again.finalAt, again.stats, again.attempts,
			faulty.finalAt, faulty.stats, faulty.attempts)
	}
}

// splitCorpus builds files of at least two chunk floors (512 KiB) and up to
// four, so the stock device splits them 2- to 4-way and chaos actually hits
// mid-scan workers.
func splitCorpus(n int) []cluster.File {
	var out []cluster.File
	for i := 0; i < n; i++ {
		line := fmt.Sprintf("line %d with the searched words in the middle\n", i)
		out = append(out, cluster.File{
			Name: fmt.Sprintf("books/book%03d.txt", i),
			Data: []byte(strings.Repeat(line, (1<<19)/len(line)*(i%3+2)/2+1)),
		})
	}
	return out
}

// TestSplitScanUnderChaosMatchesFaultFree: with the stock split scan (stock
// and pipelined read paths), a chaos run that kills a device
// mid-run and peppers the survivors with transient faults must still
// produce the serial fault-free answers — a fault landing in one chunk
// worker fails the whole task with its cause intact, the pool retries or
// fails over exactly as it would for a serial task, and the merged outputs
// stay byte-identical. Same seed twice must replay identically, chunk
// workers included.
func TestSplitScanUnderChaosMatchesFaultFree(t *testing.T) {
	files := splitCorpus(12)
	baseline := runMode(t, 4, files, nil, false, 1) // serial, fault-free: ground truth
	if baseline.runErr != nil || len(baseline.failed) > 0 {
		t.Fatalf("baseline: err=%v failed=%v", baseline.runErr, baseline.failed)
	}

	clean := run(t, 4, files, nil)
	if clean.runErr != nil || len(clean.failed) > 0 {
		t.Fatalf("split-scan fault-free run: err=%v failed=%v", clean.runErr, clean.failed)
	}
	for name, want := range baseline.outputs {
		if clean.outputs[name] != want {
			t.Fatalf("%s: split-scan output %q, serial %q", name, clean.outputs[name], want)
		}
	}
	// No speedup assertion here: with PerDeviceTasks minions already
	// saturating the cores, chunk fan-out adds queueing, not throughput
	// (the single-task speedup is the scaleup experiment's claim). But the
	// run must actually have split tasks, or this whole test is vacuous.
	if clean.psTasks == 0 {
		t.Fatal("no task executed as a split scan; corpus or config regressed")
	}

	// splitCorpus files span 128-256 pages, so media faults come at a
	// twentieth of killPlan's per-page rate: a task meets as many as a
	// 6-13-page file does at the full one.
	failAt := clean.finalAt.Duration() / 2
	plan := func() *chaos.Plan { return killPlanPerPage(7, failAt, 0.05) }
	for _, pipeline := range []bool{false, true} {
		name := "stock"
		if pipeline {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			faulty := runWith(t, 4, files, plan(), pipeline)
			if faulty.runErr != nil || len(faulty.failed) > 0 {
				t.Fatalf("split-scan chaos run: err=%v failed=%v", faulty.runErr, faulty.failed)
			}
			for name, want := range baseline.outputs {
				if faulty.outputs[name] != want {
					t.Errorf("%s: split-scan chaos output %q, serial %q", name, faulty.outputs[name], want)
				}
			}
			if len(faulty.dead) != 1 || faulty.dead[0] != 2 {
				t.Errorf("dead devices %v, want [2]", faulty.dead)
			}

			again := runWith(t, 4, files, plan(), pipeline)
			if again.finalAt != faulty.finalAt || again.stats != faulty.stats || again.attempts != faulty.attempts {
				t.Errorf("same seed diverged: %v/%+v/%d vs %v/%+v/%d",
					again.finalAt, again.stats, again.attempts,
					faulty.finalAt, faulty.stats, faulty.attempts)
			}
		})
	}
}

// TestTransientFaultsAreAbsorbed: probabilistic faults on every device,
// nobody dies, every result matches the fault-free baseline.
func TestTransientFaultsAreAbsorbed(t *testing.T) {
	files := corpus(20)
	baseline := run(t, 4, files, nil)
	plan := chaos.NewPlan(99).WithDefault(chaos.DeviceFaults{
		ReadErrProb: 0.002, ProgramErrProb: 0.001, DropProb: 0.03, FailSlowFactor: 1.5,
	})
	faulty := run(t, 4, files, plan)
	if faulty.runErr != nil || len(faulty.failed) > 0 {
		t.Fatalf("transient faults not absorbed: err=%v failed=%v", faulty.runErr, faulty.failed)
	}
	if len(faulty.dead) != 0 {
		t.Fatalf("transient faults killed devices %v", faulty.dead)
	}
	if faulty.stats.Drops+faulty.stats.ReadFaults+faulty.stats.ProgramFaults == 0 {
		t.Fatal("plan injected nothing; test is vacuous")
	}
	for name, want := range baseline.outputs {
		if got := faulty.outputs[name]; got != want {
			t.Errorf("%s: %q != baseline %q", name, got, want)
		}
	}
}

// TestAllDevicesDead: when every device fails, MapFilesFT reports
// ErrNoDevices and accounts for every file rather than hanging.
func TestAllDevicesDead(t *testing.T) {
	files := corpus(8)
	plan := chaos.NewPlan(5).WithDefault(chaos.DeviceFaults{FailAt: 1}) // dead from t≈0
	res := run(t, 2, files, plan)
	if !errors.Is(res.runErr, cluster.ErrNoDevices) {
		t.Fatalf("run error %v, want ErrNoDevices", res.runErr)
	}
	if len(res.failed) != len(files) {
		t.Fatalf("%d files accounted failed, want %d", len(res.failed), len(files))
	}
	if len(res.outputs) != 0 {
		t.Fatalf("dead cluster produced outputs: %v", res.outputs)
	}
}

// TestRandomPlanIsStable: randomPlan is a pure function of its arguments.
func TestRandomPlanIsStable(t *testing.T) {
	a := randomPlan(42, 8, 0.5)
	b := randomPlan(42, 8, 0.5)
	for i := 0; i < 8; i++ {
		if a.Faults(i) != b.Faults(i) {
			t.Fatalf("device %d: %+v vs %+v", i, a.Faults(i), b.Faults(i))
		}
	}
	c := randomPlan(43, 8, 0.5)
	same := true
	for i := 0; i < 8; i++ {
		if a.Faults(i) != c.Faults(i) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestRandomizedSeedSweep runs several seeded random plans; every run must
// either finish all files or kill devices, never silently drop work.
func TestRandomizedSeedSweep(t *testing.T) {
	files := corpus(12)
	for seed := int64(1); seed <= 5; seed++ {
		res := run(t, 3, files, randomPlan(seed, 3, 0.4))
		if res.runErr != nil {
			t.Errorf("seed %d: run error %v", seed, res.runErr)
			continue
		}
		if len(res.outputs)+len(res.failed) != len(files) {
			t.Errorf("seed %d: %d outputs + %d failed != %d files",
				seed, len(res.outputs), len(res.failed), len(files))
		}
		if len(res.failed) > 0 {
			t.Errorf("seed %d: lost %v with devices %v dead", seed, res.failed, res.dead)
		}
	}
}

// TestUninstallRestoresFaultFreeRun: after Uninstall, a fresh workload on
// the same system runs clean.
func TestUninstallRestoresFaultFreeRun(t *testing.T) {
	sys := core.NewSystem(core.SystemConfig{
		CompStors: 1,
		Registry:  appset.Base(),
		Geometry: flash.Geometry{
			Channels: 8, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 128, PagesPerBlock: 32, PageSize: 4096,
		},
	})
	pool := cluster.NewPool(sys.Eng, sys.Devices)
	inj := chaos.Install(sys, chaos.NewPlan(3).WithDefault(chaos.DeviceFaults{DropProb: 1}))
	var dropped, clean []cluster.TaskResult
	sys.Go("driver", func(p *sim.Proc) {
		staged, err := pool.Stage(p, cluster.Shard(corpus(2), 1))
		if err != nil {
			t.Error(err)
			return
		}
		dropped = pool.MapFiles(p, staged, grepCmd)
		inj.Uninstall()
		// The first pool struck the device dead; a fresh pool over the same
		// (now healthy) hardware must run clean.
		clean = cluster.NewPool(sys.Eng, sys.Devices).MapFiles(p, staged, grepCmd)
	})
	sys.Run()
	for _, r := range dropped {
		if r.Err == nil {
			t.Errorf("DropProb=1 yet task %s succeeded", r.Name)
		}
	}
	for _, r := range clean {
		if r.Err != nil {
			t.Errorf("after Uninstall task %s failed: %v", r.Name, r.Err)
		}
	}
}
