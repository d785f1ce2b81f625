package ftl

import (
	"testing"
	"time"

	"compstor/internal/sim"
)

// A write stalled behind a checkpoint resumes at the instant the checkpoint
// ends: it finishes one idle write's time later, to the nanosecond.
func TestCheckpointStallEndsWithTheCheckpoint(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, Config{OverProvision: 0.25, CheckpointEvery: -1})
	var idle, ckptEnd, writeEnd sim.Time
	run(t, eng, func(p *sim.Proc) error {
		for lpn := int64(0); lpn < 24; lpn++ { // a map for the checkpoint to write
			if err := f.WritePage(p, lpn, fill(f, byte(lpn))); err != nil {
				return err
			}
		}
		t0 := p.Now()
		if err := f.WritePage(p, 30, fill(f, 1)); err != nil {
			return err
		}
		idle = p.Now() - t0
		var werr error
		p.Go("writer", func(w *sim.Proc) {
			w.Wait(time.Microsecond) // arrives inside the checkpoint
			werr = f.WritePage(w, 31, fill(f, 2))
			writeEnd = w.Now()
		})
		if err := f.Checkpoint(p); err != nil {
			return err
		}
		ckptEnd = p.Now()
		p.Wait(time.Millisecond)
		return werr
	})
	if want := ckptEnd + idle; writeEnd != want {
		t.Fatalf("stalled write ended at %v, want %v: the checkpoint ended at %v and an idle write takes %v",
			writeEnd, want, ckptEnd, time.Duration(idle))
	}
}
