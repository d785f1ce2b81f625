package ftl

import (
	"errors"
	"testing"

	"compstor/internal/flash"
	"compstor/internal/sim"
)

var errMedia = errors.New("simulated media failure")

func TestWriteErrorPropagates(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	f.dev.SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
		if op == flash.FaultProgram {
			return errMedia
		}
		return nil
	})
	eng.Go("w", func(p *sim.Proc) {
		if err := f.WritePage(p, 0, fill(f, 1)); !errors.Is(err, errMedia) {
			t.Errorf("write error lost: %v", err)
		}
	})
	eng.Run()
	// The failed write must not have mapped the page.
	if f.l2p.mapped != 0 {
		t.Fatal("failed write left a mapping")
	}
}

func TestReadErrorPropagates(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	eng.Go("w", func(p *sim.Proc) {
		if err := f.WritePage(p, 7, fill(f, 1)); err != nil {
			t.Error(err)
			return
		}
		f.dev.SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
			if op == flash.FaultRead {
				return errMedia
			}
			return nil
		})
		if _, err := f.ReadPage(p, 7); !errors.Is(err, errMedia) {
			t.Errorf("read error lost: %v", err)
		}
		// Unmapped reads never touch media, so they still succeed.
		if _, err := f.ReadPage(p, 8); err != nil {
			t.Errorf("unmapped read failed: %v", err)
		}
	})
	eng.Run()
}

func TestTransientWriteErrorThenRecovery(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	failures := 3
	f.dev.SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
		if op == flash.FaultProgram && failures > 0 {
			failures--
			return errMedia
		}
		return nil
	})
	eng.Go("w", func(p *sim.Proc) {
		// Retry loop: each failure burns a physical page (left non-erased),
		// but the FTL keeps allocating fresh ones.
		var err error
		for i := 0; i < 5; i++ {
			if err = f.WritePage(p, 3, fill(f, 0xEE)); err == nil {
				break
			}
		}
		if err != nil {
			t.Errorf("write never recovered: %v", err)
			return
		}
		got, err := f.ReadPage(p, 3)
		if err != nil || got[0] != 0xEE {
			t.Errorf("read after recovery: %v", err)
		}
	})
	eng.Run()
}
