package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"compstor/internal/chaos"
	"compstor/internal/core"
	"compstor/internal/sim"
)

func grepWords(name string) core.Command {
	return core.Command{Exec: "grep", Args: []string{"-c", "words", name}}
}

// gather indexes successful results by file name and collects failures.
func gather(results []TaskResult) (map[string]string, []string) {
	ok := make(map[string]string)
	var failed []string
	for _, r := range results {
		if r.Err == nil && r.Resp != nil && r.Resp.Status == core.StatusOK {
			ok[r.Name] = string(r.Resp.Stdout)
		} else {
			failed = append(failed, r.Name)
		}
	}
	return ok, failed
}

// ftRun drives MapFilesFT over a fresh system, optionally under a chaos
// plan, and returns the gathered results plus the pool for inspection.
func ftRun(t *testing.T, devices int, files []File, plan *chaos.Plan) (map[string]string, []string, error, *Pool, sim.Time) {
	t.Helper()
	sys, pool := newSystem(t, devices)
	if plan != nil {
		chaos.Install(sys, plan)
	}
	var (
		ok     map[string]string
		failed []string
		ftErr  error
	)
	sys.Go("driver", func(p *sim.Proc) {
		results, err := pool.MapFilesFT(p, files, grepWords)
		ftErr = err
		ok, failed = gather(results)
	})
	final := sys.Run()
	return ok, failed, ftErr, pool, final
}

func TestMapFilesFTFaultFree(t *testing.T) {
	files := corpus(16)
	ok, failed, err, pool, _ := ftRun(t, 4, files, nil)
	if err != nil {
		t.Fatalf("MapFilesFT: %v", err)
	}
	if len(failed) > 0 {
		t.Fatalf("failed files: %v", failed)
	}
	if len(ok) != len(files) {
		t.Fatalf("covered %d/%d files", len(ok), len(files))
	}
	if len(pool.DeadDevices()) != 0 {
		t.Fatalf("fault-free run killed devices %v", pool.DeadDevices())
	}
}

// TestQuietFTEqualsStageThenMap pins the scatter/gather fold: with no fault,
// MapFilesFT is Stage followed by MapFiles — same stdout per file, one
// attempt each, and the same final virtual time to the nanosecond — on
// twin systems at 1, 3 and 4 devices.
func TestQuietFTEqualsStageThenMap(t *testing.T) {
	files := corpus(13)
	for _, devices := range []int{1, 3, 4} {
		run := func(ft bool) (map[string]string, sim.Time) {
			sys, pool := newSystem(t, devices)
			var results []TaskResult
			sys.Go("driver", func(p *sim.Proc) {
				var err error
				if ft {
					results, err = pool.MapFilesFT(p, files, grepWords)
				} else if staged, serr := pool.Stage(p, Shard(files, devices)); serr != nil {
					err = serr
				} else {
					results = pool.MapFiles(p, staged, grepWords)
				}
				if err != nil {
					t.Errorf("%d devices, ft=%v: %v", devices, ft, err)
				}
			})
			final := sys.Run()
			for _, r := range results {
				if r.Err != nil || r.Attempts != 1 {
					t.Errorf("%d devices, ft=%v: %s: err=%v attempts=%d, want one clean attempt",
						devices, ft, r.Name, r.Err, r.Attempts)
				}
			}
			out, _ := gather(results)
			return out, final
		}
		ftOut, ftFinal := run(true)
		out, final := run(false)
		if final != ftFinal {
			t.Errorf("%d devices: Stage+MapFiles ended at %v, MapFilesFT at %v", devices, final, ftFinal)
		}
		if len(out) != len(files) || !reflect.DeepEqual(out, ftOut) {
			t.Errorf("%d devices: per-file stdout differs:\n%v\nvs\n%v", devices, out, ftOut)
		}
	}
}

// TestMapFilesFTFailsOverMidRun kills one device halfway through the map
// phase and checks the aggregate grep output is byte-identical to the
// fault-free run — the ISSUE's acceptance scenario at the cluster layer.
func TestMapFilesFTFailsOverMidRun(t *testing.T) {
	files := corpus(20)
	base, baseFailed, baseErr, _, baseFinal := ftRun(t, 4, files, nil)
	if baseErr != nil || len(baseFailed) > 0 {
		t.Fatalf("baseline: err=%v failed=%v", baseErr, baseFailed)
	}

	plan := chaos.NewPlan(11).WithDevice(1, chaos.DeviceFaults{FailAt: baseFinal.Duration() / 2})
	ok, failed, err, pool, final := ftRun(t, 4, files, plan)
	if err != nil {
		t.Fatalf("failover run: %v", err)
	}
	if len(failed) > 0 {
		t.Fatalf("failover lost files: %v", failed)
	}
	dead := pool.DeadDevices()
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("dead devices %v, want [1]", dead)
	}
	for name, want := range base {
		if got := ok[name]; got != want {
			t.Errorf("%s: %q after failover, %q fault-free", name, got, want)
		}
	}
	if final <= baseFinal {
		t.Errorf("degraded final time %v not later than baseline %v", final, baseFinal)
	}
}

// TestMapFilesFTSkipsPreMarkedDead: a device the operator marked dead gets
// no work; all files still complete on the survivors.
func TestMapFilesFTSkipsPreMarkedDead(t *testing.T) {
	sys, pool := newSystem(t, 3)
	pool.MarkDead(0)
	files := corpus(9)
	sys.Go("driver", func(p *sim.Proc) {
		results, err := pool.MapFilesFT(p, files, grepWords)
		if err != nil {
			t.Errorf("MapFilesFT: %v", err)
		}
		ok, failed := gather(results)
		if len(failed) > 0 || len(ok) != len(files) {
			t.Errorf("covered %d/%d, failed %v", len(ok), len(files), failed)
		}
		for _, r := range results {
			if r.Device == 0 {
				t.Errorf("dead device 0 ran %s", r.Name)
			}
		}
	})
	sys.Run()
}

func TestMapFilesFTAllDead(t *testing.T) {
	sys, pool := newSystem(t, 2)
	pool.MarkDead(0)
	pool.MarkDead(1)
	files := corpus(4)
	sys.Go("driver", func(p *sim.Proc) {
		results, err := pool.MapFilesFT(p, files, grepWords)
		if !errors.Is(err, ErrNoDevices) {
			t.Errorf("err=%v, want ErrNoDevices", err)
		}
		if len(results) != len(files) {
			t.Errorf("%d results, want one per file (%d)", len(results), len(files))
		}
		for _, r := range results {
			if !errors.Is(r.Err, ErrNoDevices) || r.Device != -1 {
				t.Errorf("result %+v, want Device=-1 ErrNoDevices", r)
			}
		}
	})
	sys.Run()
}

// TestDeadAfterConsecutiveTransportFailures: an agent that drops every
// response accumulates strikes until the pool declares the device dead.
func TestDeadAfterConsecutiveTransportFailures(t *testing.T) {
	files := corpus(12)
	plan := chaos.NewPlan(2).WithDevice(0, chaos.DeviceFaults{DropProb: 1})
	ok, failed, err, pool, _ := ftRun(t, 2, files, plan)
	if err != nil {
		t.Fatalf("MapFilesFT: %v", err)
	}
	if len(failed) > 0 {
		t.Fatalf("lost files %v despite a healthy survivor", failed)
	}
	if len(ok) != len(files) {
		t.Fatalf("covered %d/%d files", len(ok), len(files))
	}
	dead := pool.DeadDevices()
	if len(dead) != 1 || dead[0] != 0 {
		t.Fatalf("dead devices %v, want [0]", dead)
	}
}

// TestAppFailureDoesNotStrike: an application-level failure (grep finds no
// match, exit 1) is final — retried per policy, never a device strike.
func TestAppFailureDoesNotStrike(t *testing.T) {
	sys, pool := newSystem(t, 1)
	files := []File{{Name: "empty.txt", Data: []byte("nothing matching here\n")}}
	sys.Go("driver", func(p *sim.Proc) {
		results, err := pool.MapFilesFT(p, files, func(name string) core.Command {
			return core.Command{Exec: "grep", Args: []string{"-c", "zzz-absent", name}}
		})
		if err != nil {
			t.Errorf("MapFilesFT: %v", err)
		}
		if len(results) != 1 || results[0].Err == nil {
			t.Errorf("want one failed result, got %+v", results)
		}
	})
	sys.Run()
	if len(pool.DeadDevices()) != 0 {
		t.Errorf("app failure killed device: %v", pool.DeadDevices())
	}
}

// TestMapFilesStrideSurvivesPerDeviceTasksMutation is the regression test
// for the worker-stride bug: the stride must be the captured worker count,
// not the live PerDeviceTasks field, or a mid-run mutation makes workers
// skip (or re-run) files.
func TestMapFilesStrideSurvivesPerDeviceTasksMutation(t *testing.T) {
	sys, pool := newSystem(t, 1)
	pool.PerDeviceTasks = 2
	files := corpus(10)
	var results []TaskResult
	sys.Go("driver", func(p *sim.Proc) {
		staged, err := pool.Stage(p, Shard(files, 1))
		if err != nil {
			t.Error(err)
			return
		}
		// Widen the task cap while the map fan-out is mid-flight. Workers
		// already running must keep their original stride.
		sys.Go("mutator", func(mp *sim.Proc) {
			mp.Wait(50 * time.Microsecond)
			pool.PerDeviceTasks = 7
		})
		results = pool.MapFiles(p, staged, grepWords)
	})
	sys.Run()
	seen := make(map[string]int)
	for _, r := range results {
		seen[r.Name]++
		if r.Resp == nil && r.Err == nil {
			t.Errorf("file %s never executed (zero result slot)", r.Name)
		}
	}
	if len(results) != len(files) {
		t.Fatalf("%d results for %d files", len(results), len(files))
	}
	for _, f := range files {
		if seen[f.Name] != 1 {
			t.Errorf("file %s executed %d times, want exactly 1", f.Name, seen[f.Name])
		}
	}
}

// TestBalancersSkipDead: both balancers must route around dead devices and
// report ErrNoDevices when nothing is left.
func TestBalancersSkipDead(t *testing.T) {
	sys, pool := newSystem(t, 3)
	pool.MarkDead(1)
	sys.Go("driver", func(p *sim.Proc) {
		rr := &RoundRobin{}
		for i := 0; i < 6; i++ {
			dev, err := rr.Pick(p, pool)
			if err != nil {
				t.Errorf("RoundRobin.Pick: %v", err)
			}
			if dev == 1 {
				t.Error("RoundRobin picked dead device 1")
			}
		}
		lo := LeastOutstanding{}
		for i := 0; i < 6; i++ {
			dev, err := lo.Pick(p, pool)
			if err != nil {
				t.Errorf("LeastOutstanding.Pick: %v", err)
			}
			if dev == 1 {
				t.Error("LeastOutstanding picked dead device 1")
			}
		}
		pool.MarkDead(0)
		pool.MarkDead(2)
		if _, err := rr.Pick(p, pool); !errors.Is(err, ErrNoDevices) {
			t.Errorf("RoundRobin on dead pool: %v, want ErrNoDevices", err)
		}
		if _, err := lo.Pick(p, pool); !errors.Is(err, ErrNoDevices) {
			t.Errorf("LeastOutstanding on dead pool: %v, want ErrNoDevices", err)
		}
	})
	sys.Run()
}

// TestRetryPolicyBackoff: exponential doubling from 200µs, capped at 20ms,
// and still the cap at an attempt count whose doubling would overflow.
func TestRetryPolicyBackoff(t *testing.T) {
	want := []time.Duration{
		200 * time.Microsecond, // attempt 1
		400 * time.Microsecond,
		800 * time.Microsecond,
		1600 * time.Microsecond,
		3200 * time.Microsecond,
		6400 * time.Microsecond,
		12800 * time.Microsecond,
		20 * time.Millisecond, // capped
		20 * time.Millisecond,
	}
	for i, w := range want {
		if got := backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := backoff(100); got != 20*time.Millisecond {
		t.Errorf("backoff(100) = %v, want the 20ms cap", got)
	}
}

// TestShardLPTBound is the satellite property test: every file lands in
// exactly one shard, and the greedy LPT assignment keeps the heaviest
// shard within (average + max item) of the lightest — the classical
// longest-processing-time guarantee.
func TestShardLPTBound(t *testing.T) {
	f := func(sizes []uint16, n uint8) bool {
		devs := int(n%8) + 1
		var files []File
		var total, maxItem int64
		for i, s := range sizes {
			sz := int64(s % 5000)
			files = append(files, File{Name: fmt.Sprintf("f%d", i), Data: make([]byte, sz)})
			total += sz
			if sz > maxItem {
				maxItem = sz
			}
		}
		shards := Shard(files, devs)
		if len(shards) != devs {
			return false
		}
		seen := make(map[string]bool)
		loads := make([]int64, devs)
		for i, sh := range shards {
			for _, f := range sh {
				if seen[f.Name] {
					return false // duplicated
				}
				seen[f.Name] = true
				loads[i] += int64(len(f.Data))
			}
		}
		if len(seen) != len(files) {
			return false // dropped
		}
		var maxLoad int64
		for _, l := range loads {
			if l > maxLoad {
				maxLoad = l
			}
		}
		// Greedy bound: the heaviest shard exceeds the perfect average by at
		// most one item (integer division rounds the average down, hence +1).
		avg := total / int64(devs)
		return maxLoad <= avg+maxItem+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFailoverDeterminism: the same seeded plan replayed twice yields the
// same final virtual time and the same per-file outputs.
func TestFailoverDeterminism(t *testing.T) {
	files := corpus(14)
	mk := func() *chaos.Plan {
		return chaos.NewPlan(77).
			WithDevice(0, chaos.DeviceFaults{DropProb: 0.2}).
			WithDevice(2, chaos.DeviceFaults{FailAt: 400 * time.Microsecond})
	}
	okA, _, errA, _, finalA := ftRun(t, 3, files, mk())
	okB, _, errB, _, finalB := ftRun(t, 3, files, mk())
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v / %v", errA, errB)
	}
	if finalA != finalB {
		t.Fatalf("same plan, different final times: %v vs %v", finalA, finalB)
	}
	if len(okA) != len(okB) {
		t.Fatalf("same plan, different coverage: %d vs %d", len(okA), len(okB))
	}
	for name, out := range okA {
		if okB[name] != out {
			t.Fatalf("same plan, %s differs: %q vs %q", name, out, okB[name])
		}
	}
}
