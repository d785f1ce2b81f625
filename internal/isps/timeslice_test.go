package isps

import (
	"bytes"
	"testing"
	"time"

	"compstor/internal/apps/appset"
	"compstor/internal/cpu"
	"compstor/internal/minfs"
	"compstor/internal/sim"
)

// TestTimeSliceInterleavesQueuedWork: on a single shared core, compute runs
// in 1ms quanta, so a short task submitted after a long one starts must
// finish long before the long task does (preemption), whereas on a single
// dedicated core, unsliced, it waits for the whole long task.
func TestTimeSliceInterleavesQueuedWork(t *testing.T) {
	run := func(shared bool) (shortDone, longDone sim.Time) {
		eng := sim.NewEngine()
		cfg := Config{Registry: appset.Base().Clone()}
		if shared {
			cfg.Cores = sim.NewResource(eng, 1)
		} else {
			one := *cpu.ISPS()
			one.Cores = 1
			cfg.Platform = &one
		}
		sub := New(eng, cfg)
		dev := &memDevice{pageSize: 512, pages: 1 << 16, store: make(map[int64][]byte)}
		view := minfs.NewView(minfs.NewFS(512, 1<<16), dev)
		sub.AttachFS(view)
		eng.Go("setup", func(p *sim.Proc) {
			view.WriteFile(p, "big", bytes.Repeat([]byte("z"), 200_000)) // ~167ms of bzip2
			view.WriteFile(p, "small", []byte("tiny\n"))
		})
		eng.Run()
		eng.Go("long", func(p *sim.Proc) {
			sub.Spawn(p, TaskSpec{Exec: "bzip2", Args: []string{"big"}})
			longDone = p.Now()
		})
		eng.Go("short", func(p *sim.Proc) {
			p.Wait(time.Millisecond) // arrive after the long task started
			sub.Spawn(p, TaskSpec{Exec: "cat", Args: []string{"small"}})
			shortDone = p.Now()
		})
		eng.Run()
		return shortDone, longDone
	}

	shortNoSlice, longNoSlice := run(false)
	shortSliced, longSliced := run(true)

	// Without slicing the short task waits for the whole long task.
	if shortNoSlice < longNoSlice-sim.Time(5*time.Millisecond) {
		t.Fatalf("without slicing, short finished at %v before long at %v", shortNoSlice, longNoSlice)
	}
	// With slicing it interleaves and finishes early.
	if shortSliced > longSliced/4 {
		t.Fatalf("with slicing, short finished at %v vs long %v; no preemption", shortSliced, longSliced)
	}
}

// TestTimeSlicePreservesBusyTime: slicing on shared cores reorders
// execution but must not change the total busy time charged.
func TestTimeSlicePreservesBusyTime(t *testing.T) {
	busy := func(shared bool) sim.Duration {
		eng := sim.NewEngine()
		cfg := Config{Registry: appset.Base().Clone()}
		if shared {
			cfg.Cores = sim.NewResource(eng, cpu.ISPS().Cores)
		}
		sub := New(eng, cfg)
		dev := &memDevice{pageSize: 512, pages: 1 << 16, store: make(map[int64][]byte)}
		view := minfs.NewView(minfs.NewFS(512, 1<<16), dev)
		sub.AttachFS(view)
		eng.Go("t", func(p *sim.Proc) {
			view.WriteFile(p, "f", bytes.Repeat([]byte("q"), 200_000))
			sub.Spawn(p, TaskSpec{Exec: "grep", Args: []string{"-c", "q", "f"}})
		})
		eng.Run()
		return sub.Cores().BusyTime()
	}
	a, b := busy(false), busy(true)
	if a != b {
		t.Fatalf("busy time changed with slicing: %v vs %v", a, b)
	}
}
