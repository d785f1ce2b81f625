package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"compstor/internal/apps/appset"
	"compstor/internal/core"
	"compstor/internal/flash"
	"compstor/internal/sim"
	"compstor/internal/ssd"
)

func newSystem(t *testing.T, devices int) (*core.System, *Pool) {
	t.Helper()
	return newSystemWith(t, devices, false)
}

// newSystemWith is newSystem with the streaming read pipeline toggled.
func newSystemWith(t *testing.T, devices int, pipeline bool) (*core.System, *Pool) {
	t.Helper()
	return newSystemMode(t, devices, pipeline, 0)
}

// newSystemMode is the full-matrix constructor: the read pipeline toggle
// and the ISPS executor (scanChunks 0 is the stock split scan, 1 the
// paper's one-core-per-task executor).
func newSystemMode(t *testing.T, devices int, pipeline bool, scanChunks int) (*core.System, *Pool) {
	t.Helper()
	sys := core.NewSystem(core.SystemConfig{
		CompStors: devices,
		Registry:  appset.Base(),
		Geometry: flash.Geometry{
			Channels: 8, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 128, PagesPerBlock: 32, PageSize: 4096,
		},
		Ablation: ssd.Ablation{SerialReads: !pipeline, ScanChunks: scanChunks},
	})
	return sys, NewPool(sys.Eng, sys.Devices)
}

func corpus(n int) []File {
	var out []File
	for i := 0; i < n; i++ {
		size := 1000 * (i%7 + 1)
		out = append(out, File{
			Name: fmt.Sprintf("books/book%03d.txt", i),
			Data: bytes.Repeat([]byte(fmt.Sprintf("line of text %d with words\n", i)), size/20),
		})
	}
	return out
}

func TestShardBalancesBySize(t *testing.T) {
	files := corpus(40)
	shards := Shard(files, 4)
	var sizes [4]int64
	total := 0
	for i, sh := range shards {
		for _, f := range sh {
			sizes[i] += int64(len(f.Data))
			total++
		}
	}
	if total != 40 {
		t.Fatalf("lost files: %d", total)
	}
	var min, max int64 = 1 << 60, 0
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if float64(max) > 1.3*float64(min) {
		t.Fatalf("imbalanced shards: %v", sizes)
	}
}

func TestShardProperty(t *testing.T) {
	f := func(sizes []uint16, n uint8) bool {
		devs := int(n%8) + 1
		var files []File
		for i, s := range sizes {
			files = append(files, File{Name: fmt.Sprintf("f%d", i), Data: make([]byte, int(s%5000))})
		}
		shards := Shard(files, devs)
		seen := map[string]bool{}
		for _, sh := range shards {
			for _, f := range sh {
				if seen[f.Name] {
					return false // duplicated
				}
				seen[f.Name] = true
			}
		}
		return len(seen) == len(files)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStageAndMapFiles(t *testing.T) {
	sys, pool := newSystem(t, 4)
	files := corpus(16)
	var results []TaskResult
	sys.Go("driver", func(p *sim.Proc) {
		staged, err := pool.Stage(p, Shard(files, 4))
		if err != nil {
			t.Error(err)
			return
		}
		results = pool.MapFiles(p, staged, func(name string) core.Command {
			return core.Command{Exec: "grep", Args: []string{"-c", "words", name}}
		})
	})
	sys.Run()
	if len(results) != 16 {
		t.Fatalf("got %d results, want 16", len(results))
	}
	for _, r := range results {
		if r.Err != nil || r.Resp.Status != core.StatusOK {
			t.Fatalf("result %+v failed: %v", r, r.Err)
		}
		if strings.TrimSpace(string(r.Resp.Stdout)) == "0" {
			t.Fatalf("file %s matched nothing", r.Name)
		}
	}
}

func TestRoundRobinBalancer(t *testing.T) {
	sys, pool := newSystem(t, 3)
	rr := &RoundRobin{}
	var picks []int
	sys.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			r := pool.Dispatch(p, rr, core.Command{Exec: "echo", Args: []string{"x"}})
			picks = append(picks, r.Device)
		}
	})
	sys.Run()
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if picks[i] != want[i] {
			t.Fatalf("picks = %v", picks)
		}
	}
}

func TestStageErrorPropagates(t *testing.T) {
	sys := core.NewSystem(core.SystemConfig{
		CompStors: 1,
		Registry:  appset.Base(),
		Geometry: flash.Geometry{ // ~16 MB device
			Channels: 8, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerPlan: 16, PagesPerBlock: 32, PageSize: 4096,
		},
	})
	pool := NewPool(sys.Eng, sys.Devices)
	// A file larger than the device must fail staging.
	huge := []File{{Name: "too-big", Data: make([]byte, 32<<20)}}
	var err error
	sys.Go("driver", func(p *sim.Proc) {
		_, err = pool.Stage(p, Shard(huge, 1))
	})
	sys.Run()
	if err == nil {
		t.Fatal("staging an oversized file succeeded")
	}
}

func TestTooManyShardsRejected(t *testing.T) {
	sys, pool := newSystem(t, 1)
	var err error
	sys.Go("driver", func(p *sim.Proc) {
		_, err = pool.Stage(p, make([][]File, 3))
	})
	sys.Run()
	if err == nil {
		t.Fatal("3 shards on 1 device accepted")
	}
}

func TestScalingIsNearLinear(t *testing.T) {
	// The Fig 6 property at unit-test scale: 4 devices finish the same
	// corpus close to 4x faster than 1 device.
	// Use files large enough that compute dominates per-minion fixed costs.
	var files []File
	for i := 0; i < 48; i++ {
		files = append(files, File{
			Name: fmt.Sprintf("f%02d", i),
			Data: bytes.Repeat([]byte(fmt.Sprintf("scaling corpus line %d\n", i)), 3000),
		})
	}
	elapsed := func(devices int) sim.Duration {
		sys, pool := newSystem(t, devices)
		var dur sim.Duration
		sys.Go("driver", func(p *sim.Proc) {
			staged, err := pool.Stage(p, Shard(files, devices))
			if err != nil {
				t.Error(err)
				return
			}
			start := p.Now()
			pool.MapFiles(p, staged, func(name string) core.Command {
				return core.Command{Exec: "gzip", Args: []string{name}}
			})
			dur = p.Now().Sub(start)
		})
		sys.Run()
		return dur
	}
	one, four := elapsed(1), elapsed(4)
	speedup := float64(one) / float64(four)
	if speedup < 3.0 {
		t.Fatalf("4-device speedup %.2fx; expected near-linear scaling", speedup)
	}
}
