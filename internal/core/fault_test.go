package core

import (
	"errors"
	"strings"
	"testing"

	"compstor/internal/flash"
	"compstor/internal/nvme"
	"compstor/internal/sim"
)

var errMedia = errors.New("simulated media failure")

// TestMinionSurvivesMediaFault: a media read error inside an in-situ task
// must surface as a failed minion, not corrupt the platform.
func TestMinionSurvivesMediaFault(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	var failed, recovered *Response
	sys.Go("client", func(p *sim.Proc) {
		if err := unit.Client.FS().WriteFile(p, "f.txt", []byte("data to scan\n")); err != nil {
			t.Error(err)
			return
		}
		unit.Client.FS().Flush(p)
		unit.Drive.Flash().SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
			if op == flash.FaultRead {
				return errMedia
			}
			return nil
		})
		failed, _ = unit.Client.Run(p, Command{Exec: "grep", Args: []string{"-c", "data", "f.txt"}})
		unit.Drive.Flash().SetFaultHook(nil)
		recovered, _ = unit.Client.Run(p, Command{Exec: "grep", Args: []string{"-c", "data", "f.txt"}})
	})
	sys.Run()
	if failed.Status != StatusFailed {
		t.Fatalf("faulted minion status %v", failed.Status)
	}
	if !strings.Contains(failed.Error, "media failure") {
		t.Fatalf("fault detail lost: %q", failed.Error)
	}
	if recovered.Status != StatusOK || strings.TrimSpace(string(recovered.Stdout)) != "1" {
		t.Fatalf("device did not recover: %+v", recovered)
	}
}

// TestHostReadFaultSurfacesThroughNVMe: the same fault through the host
// path must produce a failed NVMe command with the error detail.
func TestHostReadFaultSurfacesThroughNVMe(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	sys.Go("host", func(p *sim.Proc) {
		drv := unit.Drive.Driver()
		if err := drv.Write(p, 10, make([]byte, 4096)); err != nil {
			t.Error(err)
			return
		}
		unit.Drive.Flash().SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
			if op == flash.FaultRead {
				return errMedia
			}
			return nil
		})
		comp := drv.Submit(p, &nvme.Command{Op: nvme.OpRead, LBA: 10, Pages: 1, Data: make([]byte, 4096)})
		if comp.Status != nvme.StatusInternal {
			t.Errorf("status %v, want INTERNAL", comp.Status)
		}
		if comp.Err == nil || !errors.Is(comp.Err, errMedia) {
			t.Errorf("error detail lost: %v", comp.Err)
		}
	})
	sys.Run()
}

// TestAgentRejectsWrongPayloads: malformed vendor payloads must fail
// cleanly, not panic the device.
func TestAgentRejectsWrongPayloads(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	sys.Go("client", func(p *sim.Proc) {
		drv := unit.Drive.Driver()
		for _, cmd := range []*nvme.Command{
			{Op: nvme.OpVendorMinion, Payload: "not-a-command", PayloadBytes: 16},
			{Op: nvme.OpVendorQuery, Payload: 42, PayloadBytes: 8},
			{Op: nvme.OpVendorTaskLoad, Payload: 3.14, PayloadBytes: 8},
			{Op: nvme.OpVendorQuery, Payload: Query{Kind: QueryKind(99)}, PayloadBytes: 8},
		} {
			comp := drv.Submit(p, cmd)
			if comp.Status == nvme.StatusOK {
				t.Errorf("payload %T on %v accepted", cmd.Payload, cmd.Op)
			}
		}
		// The device still works afterwards.
		st, err := unit.Client.Status(p)
		if err != nil || st.Cores != 4 {
			t.Errorf("device unhealthy after bad payloads: %v", err)
		}
	})
	sys.Run()
}

// TestWriteFaultDuringStaging: a program fault during host staging surfaces
// as a write error rather than dropping data. Staging through the raw
// driver shows the synchronous error path; the write-back path instead
// holds the error sticky and reports it at the Flush barrier (see
// internal/minfs/writeback.go).
func TestWriteFaultDuringStaging(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	sys.Go("host", func(p *sim.Proc) {
		unit.Drive.Flash().SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
			if op == flash.FaultProgram {
				return errMedia
			}
			return nil
		})
		err := unit.Drive.Driver().Write(p, 0, make([]byte, 4096))
		if err == nil || !errors.Is(err, errMedia) {
			t.Errorf("write fault lost: %v", err)
		}
	})
	sys.Run()
}
