package core

import (
	"bytes"
	"errors"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/sim"
)

// idleMem is an idle device's ISPS DRAM use: the read cache's reservation.
func idleMem(t *testing.T) int64 {
	sys := newSystem(t, 1, false)
	defer sys.Close()
	return sys.Device(0).Agent.sub.Status().MemUsedBytes
}

// TestMinionDeadlineEndToEnd drives a deadline through the whole stack:
// host command → fabric → agent → ISPS task, asserting the typed status
// mapping, the early abort, and that the device's core and DRAM came back.
func TestMinionDeadlineEndToEnd(t *testing.T) {
	payload := bytes.Repeat([]byte("some text to scan for the needle word\n"), 8000)

	run := func(deadline sim.Time) (*Response, sim.Time, *System) {
		sys := newSystem(t, 1, false)
		unit := sys.Device(0)
		var resp *Response
		sys.Go("client", func(p *sim.Proc) {
			if err := unit.Client.FS().WriteFile(p, "big.txt", payload); err != nil {
				t.Error(err)
				return
			}
			var err error
			resp, err = unit.Client.Run(p, Command{
				Exec: "grep", Args: []string{"-c", "needle", "big.txt"},
				InputFiles: []string{"big.txt"},
				Deadline:   deadline,
			})
			if err != nil {
				t.Errorf("transport error: %v", err)
			}
		})
		sys.Run()
		return resp, sys.Eng.Now(), sys
	}

	full, fullEnd, _ := run(0)
	if full == nil || full.Status != StatusOK {
		t.Fatalf("full run: %+v", full)
	}
	deadline := sim.Time(fullEnd.Duration() / 2)
	resp, end, sys := run(deadline)
	if resp == nil {
		t.Fatal("no response for deadlined run")
	}
	if resp.Status != StatusDeadline {
		t.Fatalf("status = %v, want StatusDeadline", resp.Status)
	}
	if resp.Retryable {
		t.Fatal("deadline marked retryable — retrying cannot win a race the clock decided")
	}
	if end >= fullEnd {
		t.Fatalf("deadlined run ended at %v, not before the full run's %v", end, fullEnd)
	}
	st := sys.Device(0).Agent.sub.Status()
	if st.CoresBusy != 0 || st.MemUsedBytes != idleMem(t) || st.RunningTasks != 0 {
		t.Fatalf("device resources leaked: cores %d, mem %d, tasks %d",
			st.CoresBusy, st.MemUsedBytes, st.RunningTasks)
	}
}

// TestMinionCancelEndToEnd: a host-held token fired mid-run aborts the
// device-side task with StatusCanceled and frees its resources.
func TestMinionCancelEndToEnd(t *testing.T) {
	payload := bytes.Repeat([]byte("some text to scan for the needle word\n"), 8000)

	// Uncanceled run first, to learn when "mid-task" is.
	full := func() sim.Time {
		sys := newSystem(t, 1, false)
		unit := sys.Device(0)
		sys.Go("client", func(p *sim.Proc) {
			if err := unit.Client.FS().WriteFile(p, "big.txt", payload); err != nil {
				t.Error(err)
				return
			}
			if _, err := unit.Client.Run(p, Command{
				Exec: "grep", Args: []string{"-c", "needle", "big.txt"},
				InputFiles: []string{"big.txt"},
			}); err != nil {
				t.Errorf("transport error: %v", err)
			}
		})
		sys.Run()
		return sys.Eng.Now()
	}()

	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	tok := &apps.CancelToken{}
	sys.Eng.At(sim.Time(full.Duration()/2), tok.Cancel)
	var resp *Response
	sys.Go("client", func(p *sim.Proc) {
		if err := unit.Client.FS().WriteFile(p, "big.txt", payload); err != nil {
			t.Error(err)
			return
		}
		var err error
		resp, err = unit.Client.Run(p, Command{
			Exec: "grep", Args: []string{"-c", "needle", "big.txt"},
			InputFiles: []string{"big.txt"},
			Cancel:     tok,
		})
		if err != nil {
			t.Errorf("transport error: %v", err)
		}
	})
	sys.Run()
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Status != StatusCanceled {
		t.Fatalf("status = %v, want StatusCanceled (error %q)", resp.Status, resp.Error)
	}
	if !errors.Is(apps.ErrCanceled, apps.ErrCanceled) {
		t.Fatal("sanity")
	}
	if end := sys.Eng.Now(); end >= full {
		t.Fatalf("canceled run ended at %v, not before the full run's %v", end, full)
	}
	st := unit.Agent.sub.Status()
	if st.CoresBusy != 0 || st.MemUsedBytes != idleMem(t) || st.RunningTasks != 0 {
		t.Fatalf("device resources leaked: cores %d, mem %d, tasks %d",
			st.CoresBusy, st.MemUsedBytes, st.RunningTasks)
	}
}
