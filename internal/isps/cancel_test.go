package isps

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"compstor/internal/apps"
	"compstor/internal/sim"
)

// cancelPayload is large enough that a grep over it spans many compute
// quanta, giving cancellation and deadlines real checkpoints to land on.
var cancelPayload = bytes.Repeat([]byte("some text to scan for the needle word\n"), 8000)

// runGrep spawns one grep over cancelPayload with the given deadline and
// cancel token, returning the result and the run's final virtual time.
func runGrep(t *testing.T, deadline sim.Time, cancel *apps.CancelToken, arm func(eng *sim.Engine)) (TaskResult, sim.Time, *Subsystem) {
	t.Helper()
	eng, sub, view := newRig(t)
	var res TaskResult
	eng.Go("client", func(p *sim.Proc) {
		if err := view.WriteFile(p, "big.txt", cancelPayload); err != nil {
			t.Error(err)
			return
		}
		res = sub.Spawn(p, TaskSpec{
			Exec: "grep", Args: []string{"-c", "needle", "big.txt"},
			Deadline: deadline, Cancel: cancel,
		})
	})
	if arm != nil {
		arm(eng)
	}
	eng.Run()
	eng.Shutdown() // release pooled proc workers so the leak check sees a clean slate
	return res, eng.Now(), sub
}

// settleGoroutines polls until the goroutine count stops above the
// baseline or the real-time budget runs out — the no-new-dependencies
// stand-in for a leak detector. Engine procs are parked coroutines, which
// the runtime counts as goroutines; a leaked one would hold the count up.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d > baseline %d", runtime.NumGoroutine(), baseline)
}

func TestSpawnDeadlineAborts(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// Full run first: the deadline for the aborted run is a fraction of it.
	full, fullEnd, _ := runGrep(t, 0, nil, nil)
	if full.Err != nil {
		t.Fatalf("full run failed: %v", full.Err)
	}
	deadline := sim.Time(fullEnd.Duration() / 3)

	res, end, sub := runGrep(t, deadline, nil, nil)
	if !errors.Is(res.Err, apps.ErrDeadline) {
		t.Fatalf("err = %v, want apps.ErrDeadline", res.Err)
	}
	if res.ExitCode == 0 {
		t.Fatal("deadline abort reported exit code 0")
	}
	if end >= fullEnd {
		t.Fatalf("aborted run ended at %v, not before the full run's %v", end, fullEnd)
	}
	// The abort must be cooperative but prompt: the task stops at its next
	// checkpoint after the deadline, not at the natural end of the scan.
	if slack := end.Sub(deadline); slack > fullEnd.Sub(deadline)/2 {
		t.Fatalf("task overran its deadline by %v (full run had %v left)", slack, fullEnd.Sub(deadline))
	}
	// Cancellation is real only if the resources came back.
	st := sub.Status()
	if st.CoresBusy != 0 {
		t.Fatalf("%d cores still busy after deadline abort", st.CoresBusy)
	}
	if st.MemUsedBytes != 0 {
		t.Fatalf("%d bytes DRAM still reserved after deadline abort", st.MemUsedBytes)
	}
	if st.RunningTasks != 0 {
		t.Fatalf("%d zombie tasks after deadline abort", st.RunningTasks)
	}
	settleGoroutines(t, baseline)
}

func TestSpawnCancelAborts(t *testing.T) {
	baseline := runtime.NumGoroutine()
	full, fullEnd, _ := runGrep(t, 0, nil, nil)
	if full.Err != nil {
		t.Fatalf("full run failed: %v", full.Err)
	}
	cancelAt := sim.Time(fullEnd.Duration() / 3)

	tok := &apps.CancelToken{}
	res, end, sub := runGrep(t, 0, tok, func(eng *sim.Engine) {
		eng.At(cancelAt, tok.Cancel)
	})
	if !errors.Is(res.Err, apps.ErrCanceled) {
		t.Fatalf("err = %v, want apps.ErrCanceled", res.Err)
	}
	if end >= fullEnd {
		t.Fatalf("canceled run ended at %v, not before the full run's %v", end, fullEnd)
	}
	st := sub.Status()
	if st.CoresBusy != 0 || st.MemUsedBytes != 0 || st.RunningTasks != 0 {
		t.Fatalf("resources leaked after cancel: cores %d, mem %d, tasks %d",
			st.CoresBusy, st.MemUsedBytes, st.RunningTasks)
	}
	settleGoroutines(t, baseline)
}

// TestSpawnDeadlineAlreadyPassed: a task whose deadline lapsed before it
// started must fast-fail without consuming a core at all.
func TestSpawnDeadlineAlreadyPassed(t *testing.T) {
	eng, sub, view := newRig(t)
	var res TaskResult
	var elapsed sim.Duration
	eng.Go("client", func(p *sim.Proc) {
		view.WriteFile(p, "f.txt", []byte("data\n"))
		p.Wait(time.Millisecond)
		start := p.Now()
		res = sub.Spawn(p, TaskSpec{
			Exec: "grep", Args: []string{"-c", "data", "f.txt"},
			Deadline: sim.Time(time.Microsecond),
		})
		elapsed = p.Now().Sub(start)
	})
	eng.Run()
	if !errors.Is(res.Err, apps.ErrDeadline) {
		t.Fatalf("err = %v, want apps.ErrDeadline", res.Err)
	}
	if elapsed != 0 {
		t.Fatalf("pre-lapsed task consumed %v of virtual time", elapsed)
	}
}

// TestSpawnCanceledBeforeStart: a pre-fired token fast-fails the spawn.
func TestSpawnCanceledBeforeStart(t *testing.T) {
	eng, sub, view := newRig(t)
	tok := &apps.CancelToken{}
	tok.Cancel()
	var res TaskResult
	eng.Go("client", func(p *sim.Proc) {
		view.WriteFile(p, "f.txt", []byte("data\n"))
		res = sub.Spawn(p, TaskSpec{Exec: "grep", Args: []string{"-c", "data", "f.txt"}, Cancel: tok})
	})
	eng.Run()
	if !errors.Is(res.Err, apps.ErrCanceled) {
		t.Fatalf("err = %v, want apps.ErrCanceled", res.Err)
	}
}

// TestSpawnDeadlineDeterministic: two aborted runs with the same deadline
// are byte-identical — same error, same exit, same final virtual time.
func TestSpawnDeadlineDeterministic(t *testing.T) {
	full, fullEnd, _ := runGrep(t, 0, nil, nil)
	if full.Err != nil {
		t.Fatalf("full run failed: %v", full.Err)
	}
	deadline := sim.Time(fullEnd.Duration() / 3)
	r1, e1, _ := runGrep(t, deadline, nil, nil)
	r2, e2, _ := runGrep(t, deadline, nil, nil)
	if e1 != e2 {
		t.Fatalf("final times differ: %v vs %v", e1, e2)
	}
	if !errors.Is(r1.Err, apps.ErrDeadline) || !errors.Is(r2.Err, apps.ErrDeadline) {
		t.Fatalf("errors differ or untyped: %v vs %v", r1.Err, r2.Err)
	}
	if r1.Finished != r2.Finished {
		t.Fatalf("finish times differ: %v vs %v", r1.Finished, r2.Finished)
	}
}

// A program that spins never reaches a charged read, so it used to hold its
// core — and a host goroutine — with virtual time frozen, out of reach of
// deadlines, cancel tokens and the serving watchdog. gawk now counts steps
// and charges for them, so a spin burns virtual time like a scan does.
func TestSpinningGawkMeetsItsDeadline(t *testing.T) {
	for _, prog := range []string{
		`BEGIN { while (1) {} }`,
		`BEGIN { for (;;) for (;;) {} }`,
		`function f(n) { while (1) n++ } BEGIN { f() }`,
	} {
		eng, sub, _ := newRig(t)
		start := time.Now()
		deadline := sim.Time(125 * time.Millisecond)
		var res TaskResult
		eng.Go("client", func(p *sim.Proc) {
			res = sub.Spawn(p, TaskSpec{Exec: "gawk", Args: []string{prog}, Deadline: deadline})
		})
		eng.Run()
		eng.Shutdown()
		if !errors.Is(res.Err, apps.ErrDeadline) {
			t.Errorf("%s: err = %v, want apps.ErrDeadline", prog, res.Err)
		}
		if res.Finished < deadline || res.Finished > deadline.Add(time.Millisecond) {
			t.Errorf("%s: finished at %v, deadline %v", prog, res.Finished, deadline)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: %v of host time", prog, d)
		}
	}
}

func TestSpinningGawkSeesCancel(t *testing.T) {
	eng, sub, _ := newRig(t)
	cancel := &apps.CancelToken{}
	var res TaskResult
	eng.Go("client", func(p *sim.Proc) {
		res = sub.Spawn(p, TaskSpec{Exec: "gawk", Args: []string{`BEGIN { while (1) {} }`}, Cancel: cancel})
	})
	eng.Go("canceller", func(p *sim.Proc) {
		p.Wait(20 * time.Millisecond)
		cancel.Cancel()
	})
	eng.Run()
	eng.Shutdown()
	if !errors.Is(res.Err, apps.ErrCanceled) {
		t.Fatalf("err = %v, want apps.ErrCanceled", res.Err)
	}
}

// A shell stage obeys the task's deadline and cancel token like a program
// spawned on its own: `sh -c` hands each stage the task's context, not a
// fresh one without them.
func TestShellStagesMeetTheTaskDeadline(t *testing.T) {
	const script = "cat big.txt | grep -c needle"
	run := func(deadline sim.Time) (TaskResult, sim.Time) {
		eng, sub, view := newRig(t)
		var res TaskResult
		eng.Go("client", func(p *sim.Proc) {
			if err := view.WriteFile(p, "big.txt", cancelPayload); err != nil {
				t.Error(err)
				return
			}
			res = sub.Spawn(p, TaskSpec{Script: script, Deadline: deadline})
		})
		end := eng.Run()
		eng.Shutdown()
		return res, end
	}
	full, fullEnd := run(0)
	if full.Err != nil || string(full.Stdout) != "8000\n" {
		t.Fatalf("full run: %v %q", full.Err, full.Stdout)
	}
	deadline := sim.Time(fullEnd.Duration() / 2)
	res, end := run(deadline)
	if !errors.Is(res.Err, apps.ErrDeadline) {
		t.Fatalf("err = %v, stdout %q; want apps.ErrDeadline", res.Err, res.Stdout)
	}
	if end >= fullEnd {
		t.Fatalf("aborted script ended at %v, not before the full run's %v", end, fullEnd)
	}
}

func TestSpinningShellStageMeetsItsDeadline(t *testing.T) {
	eng, sub, _ := newRig(t)
	deadline := sim.Time(125 * time.Millisecond)
	var res TaskResult
	eng.Go("client", func(p *sim.Proc) {
		res = sub.Spawn(p, TaskSpec{Script: "gawk 'BEGIN { while (1) {} }'", Deadline: deadline})
	})
	eng.Run()
	eng.Shutdown()
	if !errors.Is(res.Err, apps.ErrDeadline) {
		t.Fatalf("err = %v, want apps.ErrDeadline", res.Err)
	}
	if res.Finished < deadline || res.Finished > deadline.Add(time.Millisecond) {
		t.Errorf("finished at %v, deadline %v", res.Finished, deadline)
	}
}

func TestSpinningShellStageSeesCancel(t *testing.T) {
	eng, sub, _ := newRig(t)
	cancel := &apps.CancelToken{}
	var res TaskResult
	eng.Go("client", func(p *sim.Proc) {
		res = sub.Spawn(p, TaskSpec{Script: "gawk 'BEGIN { while (1) {} }'", Cancel: cancel})
	})
	eng.Go("canceller", func(p *sim.Proc) {
		p.Wait(20 * time.Millisecond)
		cancel.Cancel()
	})
	eng.Run()
	eng.Shutdown()
	if !errors.Is(res.Err, apps.ErrCanceled) {
		t.Fatalf("err = %v, want apps.ErrCanceled", res.Err)
	}
}
