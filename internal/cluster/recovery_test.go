package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"compstor/internal/chaos"
	"compstor/internal/core"
	"compstor/internal/flash"
	"compstor/internal/sim"
)

// TestPowerCutRemountRejoin is the ISSUE's device-lifecycle scenario: a
// cluster device loses power mid-run, every operation on it fails with a
// power-loss error, and after Remount + Revive it rejoins the pool serving
// exactly the data it had acknowledged before the cut. Run stock, with the
// streaming read pipeline (ISPS DRAM does not survive the cut, so that
// variant additionally proves the warm cache was dropped rather than
// served stale across the remount), and with split-scan execution (the
// powered-off error must surface through a chunk worker, and the revived
// device's parallel merge must match the pre-cut serial answer).
func TestPowerCutRemountRejoin(t *testing.T) {
	for _, mode := range []struct {
		name       string
		pipeline   bool
		scanChunks int
	}{
		{"stock", false, 1},
		{"pipelined", true, 1},
		{"parscan", false, 0},
		{"pipelined_parscan", true, 0},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) { testPowerCutRemountRejoin(t, mode.pipeline, mode.scanChunks) })
	}
}

func testPowerCutRemountRejoin(t *testing.T, pipeline bool, scanChunks int) {
	const cut = 50 * time.Millisecond
	sys, pool := newSystemMode(t, 2, pipeline, scanChunks)
	inj := chaos.Install(sys, chaos.NewPlan(21).WithDevice(0, chaos.DeviceFaults{PowerCutAt: cut}))

	// Two chunk floors: the stock device splits it.
	data := bytes.Repeat([]byte("a line with words in it\n"), (1<<19)/24+1)
	cmd := core.Command{Exec: "grep", Args: []string{"-c", "words", "pre.txt"}}

	sys.Go("driver", func(p *sim.Proc) {
		cl := pool.Unit(0).Client

		// Phase 1, before the cut: stage a file, make it durable, read it.
		if err := cl.FS().WriteFile(p, "pre.txt", data); err != nil {
			t.Errorf("stage: %v", err)
			return
		}
		if err := cl.FS().Flush(p); err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		before, err := cl.Run(p, cmd)
		if err != nil || before.Status != core.StatusOK {
			t.Errorf("pre-cut grep: err=%v resp=%+v", err, before)
			return
		}
		if p.Now().Duration() >= cut {
			t.Errorf("phase 1 ran past the scheduled cut (%v)", p.Now())
			return
		}

		// Phase 2: wait through the cut; the device must refuse work with a
		// power-loss error, which the pool books as strikes until dead.
		p.WaitUntil(sim.Time(cut + 10*time.Millisecond))
		if _, err := cl.Run(p, cmd); !errors.Is(err, flash.ErrPowerLoss) {
			t.Errorf("post-cut run: %v, want power-loss error", err)
			return
		}
		pool.MarkDead(0)

		// Phase 3: restore power, remount, rejoin. The recovered device must
		// serve the pre-cut file byte-for-byte.
		rs, err := pool.Unit(0).Drive.Remount(p)
		if err != nil {
			t.Errorf("remount: %v", err)
			return
		}
		if rs.RecoveredPages == 0 {
			t.Errorf("remount recovered nothing: %+v", rs)
		}
		pool.Revive(0)
		if len(pool.DeadDevices()) != 0 {
			t.Errorf("revived pool still has dead devices %v", pool.DeadDevices())
		}
		after, err := cl.Run(p, cmd)
		if err != nil || after.Status != core.StatusOK {
			t.Errorf("post-remount grep: err=%v resp=%+v", err, after)
			return
		}
		if !bytes.Equal(after.Stdout, before.Stdout) {
			t.Errorf("post-remount output %q != pre-cut %q", after.Stdout, before.Stdout)
		}
		if st := pool.Unit(0).Drive.ISPS().ParScanStats(); (st.Tasks > 0) != (scanChunks == 0) {
			t.Errorf("split-scan stats %+v with ScanChunks %d", st, scanChunks)
		}
		if pipeline {
			st, ok := pool.Unit(0).Drive.ReadCacheStats()
			if !ok {
				t.Error("pipelined drive reports no read cache")
			} else if st.Invalidations == 0 {
				t.Errorf("remount dropped nothing from a warm cache: %+v", st)
			}
		}
	})
	sys.Run()

	st := inj.Stats()
	if st.PowerCuts != 1 {
		t.Errorf("PowerCuts = %d, want 1", st.PowerCuts)
	}
	if st.PowerRejects == 0 {
		t.Error("no operations were rejected while powered off")
	}
}

// TestCorruptionFailsOverToHealthyReplica: device 0 silently corrupts every
// page it serves. The FTL's CRC turns that into detectable media errors, the
// agent marks the responses Retryable, and the pool must strike the device
// out and re-run every file on the healthy device — same bytes as a
// fault-free run, no file reported failed, and never a wrong answer.
func TestCorruptionFailsOverToHealthyReplica(t *testing.T) {
	files := corpus(8)
	base, baseFailed, baseErr, _, _ := ftRun(t, 2, files, nil)
	if baseErr != nil || len(baseFailed) > 0 {
		t.Fatalf("baseline: err=%v failed=%v", baseErr, baseFailed)
	}

	plan := chaos.NewPlan(33).WithDevice(0, chaos.DeviceFaults{CorruptProb: 1})
	ok, failed, err, pool, _ := ftRun(t, 2, files, plan)
	if err != nil {
		t.Fatalf("MapFilesFT: %v", err)
	}
	if len(failed) > 0 {
		t.Fatalf("lost files %v despite a healthy replica", failed)
	}
	for name, want := range base {
		if got := ok[name]; got != want {
			t.Errorf("%s: %q under corruption, %q fault-free", name, got, want)
		}
	}
	// Only the Retryable classification can kill device 0 here: a corrupt
	// read is a successfully-delivered FAILED response, which without the
	// media-failure route would clear strikes and poison the task instead.
	dead := pool.DeadDevices()
	if len(dead) != 1 || dead[0] != 0 {
		t.Fatalf("dead devices %v, want [0]", dead)
	}
}

// TestReviveClearsStrikes: Revive forgives accumulated strikes, so a
// recovered device gets a fresh DeadAfter budget rather than dying on its
// first post-rejoin hiccup.
func TestReviveClearsStrikes(t *testing.T) {
	_, pool := newSystem(t, 2)
	for i := 0; i < pool.Retry.DeadAfter; i++ {
		pool.strike(nil, 0) // no obs attached: the proc is only a trace timestamp
	}
	if !pool.IsDead(0) {
		t.Fatal("strikes did not kill the device")
	}
	pool.Revive(0)
	if pool.IsDead(0) {
		t.Fatal("Revive left the device dead")
	}
	if pool.strikes[0] != 0 {
		t.Fatalf("Revive left %d strikes", pool.strikes[0])
	}
}
