package nvme

import (
	"testing"
	"time"

	"compstor/internal/sim"
)

// TestVendorQueueDoesNotStarveIO verifies the separate vendor contexts:
// long-running vendor commands (in-situ tasks) must not block ordinary
// reads, even with every vendor worker busy.
func TestVendorQueueDoesNotStarveIO(t *testing.T) {
	be := newFakeBackend()
	be.vendorFn = func(p *sim.Proc, op Opcode, payload any) (any, int64, error) {
		p.Wait(100 * time.Millisecond) // a long in-situ task
		return "done", 16, nil
	}
	eng, drv, _ := newRig(be)

	// Saturate every vendor worker.
	for i := 0; i < vendorWorkers; i++ {
		eng.Go("minion", func(p *sim.Proc) {
			drv.Submit(p, &Command{Op: OpVendorMinion, Payload: "task", PayloadBytes: 64})
		})
	}
	var readDone sim.Time
	eng.Go("reader", func(p *sim.Proc) {
		p.Wait(time.Millisecond) // let the minions occupy the vendor queue
		if _, err := drv.Read(p, 0, 1); err != nil {
			t.Error(err)
		}
		readDone = p.Now()
	})
	eng.Run()
	if readDone > sim.Time(10*time.Millisecond) {
		t.Fatalf("read completed at %v; vendor tasks starved the I/O path", readDone)
	}
}

// TestVendorCommandsQueueWhenWorkersBusy: one vendor command more than
// there are vendor contexts waits for a free one rather than failing.
func TestVendorCommandsQueueWhenWorkersBusy(t *testing.T) {
	be := newFakeBackend()
	be.vendorFn = func(p *sim.Proc, op Opcode, payload any) (any, int64, error) {
		p.Wait(10 * time.Millisecond)
		return "ok", 8, nil
	}
	eng, drv, _ := newRig(be)
	var done []sim.Time
	for i := 0; i < vendorWorkers+1; i++ {
		eng.Go("m", func(p *sim.Proc) {
			comp := drv.Submit(p, &Command{Op: OpVendorQuery, Payload: "q", PayloadBytes: 8})
			if comp.Status != StatusOK {
				t.Errorf("vendor failed: %v", comp.Err)
			}
			done = append(done, p.Now())
		})
	}
	eng.Run()
	if len(done) != vendorWorkers+1 {
		t.Fatalf("%d completions", len(done))
	}
	if first, last := done[vendorWorkers-1], done[vendorWorkers]; first >= sim.Time(20*time.Millisecond) || last < sim.Time(20*time.Millisecond) {
		t.Fatalf("%d concurrent 10ms vendor commands finished at %v, the one after them at %v", vendorWorkers, first, last)
	}
}
