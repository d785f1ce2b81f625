package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"compstor/internal/core"
	"compstor/internal/sim"
)

// TestPerDeviceTasksZeroMapsSerially is the regression test for the budget
// clamp: a zero (or negative) PerDeviceTasks used to spawn zero workers and
// silently map zero files; it must degrade to serial dispatch instead.
func TestPerDeviceTasksZeroMapsSerially(t *testing.T) {
	for _, budget := range []int{0, -3} {
		t.Run(fmt.Sprintf("budget_%d", budget), func(t *testing.T) {
			sys, pool := newSystem(t, 2)
			pool.PerDeviceTasks = budget
			files := corpus(6)
			var results []TaskResult
			sys.Go("driver", func(p *sim.Proc) {
				staged, err := pool.Stage(p, Shard(files, 2))
				if err != nil {
					t.Error(err)
					return
				}
				results = pool.MapFiles(p, staged, func(name string) core.Command {
					return core.Command{Exec: "grep", Args: []string{"-c", "words", name}}
				})
			})
			sys.Run()
			if len(results) != 6 {
				t.Fatalf("got %d results, want 6", len(results))
			}
			for _, r := range results {
				if r.Resp == nil {
					t.Fatalf("file %s was never mapped (zero workers spawned)", r.Name)
				}
				if r.Err != nil || r.Resp.Status != core.StatusOK {
					t.Fatalf("result %+v failed: %v", r, r.Err)
				}
			}
		})
	}
}

// bigCorpus builds files of four to five chunk floors (1-1.25 MiB), so the
// stock device splits each of them across all four cores.
func bigCorpus(n int) []File {
	var out []File
	for i := 0; i < n; i++ {
		line := fmt.Sprintf("line of text %d with words\n", i)
		out = append(out, File{
			Name: fmt.Sprintf("books/book%03d.txt", i),
			Data: bytes.Repeat([]byte(line), (1<<20+(1<<18)*(i%2))/len(line)),
		})
	}
	return out
}

// TestMapFilesComposesWithParScan: host-level fan-out (PerDeviceTasks
// minions per device) and device-level chunk fan-out compose — up to 16
// workers contend on 4 cores, queue FIFO, and the merged outputs match the
// serial run file-for-file.
func TestMapFilesComposesWithParScan(t *testing.T) {
	run := func(scanChunks int) ([]TaskResult, int64) {
		sys, pool := newSystemMode(t, 2, false, scanChunks)
		files := bigCorpus(8)
		var results []TaskResult
		sys.Go("driver", func(p *sim.Proc) {
			staged, err := pool.Stage(p, Shard(files, 2))
			if err != nil {
				t.Error(err)
				return
			}
			results = pool.MapFiles(p, staged, func(name string) core.Command {
				return core.Command{Exec: "wc", Args: []string{name}}
			})
		})
		sys.Run()
		var tasks int64
		for _, d := range sys.Devices {
			tasks += d.Drive.ISPS().ParScanStats().Tasks
		}
		return results, tasks
	}
	serial, _ := run(1)
	split, tasks := run(0)
	if tasks == 0 {
		t.Fatal("no task ran as a split scan; the test is vacuous")
	}
	if len(serial) != len(split) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(split))
	}
	for i := range serial {
		if split[i].Err != nil || split[i].Resp.Status != core.StatusOK {
			t.Fatalf("split task %s failed: %v", split[i].Name, split[i].Err)
		}
		if !bytes.Equal(serial[i].Resp.Stdout, split[i].Resp.Stdout) {
			t.Fatalf("%s: split output %q != serial %q",
				serial[i].Name, split[i].Resp.Stdout, serial[i].Resp.Stdout)
		}
	}
}
