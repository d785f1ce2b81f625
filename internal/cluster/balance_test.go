package cluster

import (
	"bytes"
	"testing"

	"compstor/internal/core"
	"compstor/internal/sim"
)

// spread returns max-min of the per-device pick counts.
func spread(counts []int) int {
	min, max := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	return max - min
}

// burstPicks fires n concurrent dispatches at the same instant through b
// and returns how many landed on each device.
func burstPicks(t *testing.T, devices, n int, b Balancer) []int {
	t.Helper()
	sys, pool := newSystem(t, devices)
	big := bytes.Repeat([]byte("data to squash "), 10_000) // long enough to overlap
	counts := make([]int, devices)
	sys.Go("driver", func(p *sim.Proc) {
		if err := pool.StageReplicated(p, []File{{Name: "big", Data: big}}); err != nil {
			t.Errorf("StageReplicated: %v", err)
			return
		}
		var wg sim.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			sys.Eng.Go("burst", func(sp *sim.Proc) {
				defer wg.Done()
				r := pool.Dispatch(sp, b, core.Command{Exec: "bzip2", Args: []string{"big"}})
				if r.Err != nil {
					t.Errorf("dispatch: %v", r.Err)
					return
				}
				counts[r.Device]++
			})
		}
		wg.Wait(p)
	})
	sys.Run()
	return counts
}

// TestLeastOutstandingBurstBalance is the stale-sample regression test: a
// burst of dispatches in the same instant must spread evenly. A balancer
// that samples device load by status query reads the same pre-burst
// snapshot for every pick and piles onto one device; LeastOutstanding reads
// the host-side in-flight count, which each dispatch bumps synchronously
// before the next pick runs.
func TestLeastOutstandingBurstBalance(t *testing.T) {
	const devices, n = 4, 8
	counts := burstPicks(t, devices, n, LeastOutstanding{})
	if got := spread(counts); got > 1 {
		t.Fatalf("LeastOutstanding burst spread = %d (counts %v), want <= 1", got, counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("dispatched %d tasks, want %d (counts %v)", total, n, counts)
	}
}

// TestLeastOutstandingSkipsDead: dead devices take nothing, and a pool with
// none left reports ErrNoDevices.
func TestLeastOutstandingSkipsDead(t *testing.T) {
	sys, pool := newSystem(t, 2)
	pool.MarkDead(0)
	var picked int
	sys.Go("driver", func(p *sim.Proc) {
		r := pool.Dispatch(p, LeastOutstanding{}, core.Command{Exec: "echo", Args: []string{"hi"}})
		if r.Err != nil {
			t.Errorf("dispatch: %v", r.Err)
		}
		picked = r.Device
	})
	sys.Run()
	if picked != 1 {
		t.Fatalf("picked dead device %d", picked)
	}
	pool.MarkDead(1)
	sys.Go("driver2", func(p *sim.Proc) {
		r := pool.Dispatch(p, LeastOutstanding{}, core.Command{Exec: "echo"})
		if r.Err != ErrNoDevices {
			t.Errorf("want ErrNoDevices, got %v", r.Err)
		}
	})
	sys.Run()
}
