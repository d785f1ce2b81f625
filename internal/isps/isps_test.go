package isps

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"compstor/internal/apps"
	"compstor/internal/apps/appset"
	"compstor/internal/cpu"
	"compstor/internal/energy"
	"compstor/internal/minfs"
	"compstor/internal/sim"
)

// memDevice is a zero-cost BlockDevice so tests isolate compute behaviour.
type memDevice struct {
	pageSize int
	pages    int64
	store    map[int64][]byte
}

func (d *memDevice) PageSize() int { return d.pageSize }
func (d *memDevice) Pages() int64  { return d.pages }
func (d *memDevice) ReadPages(p *sim.Proc, lpn, count int64) ([]byte, error) {
	out := make([]byte, 0, count*int64(d.pageSize))
	for i := int64(0); i < count; i++ {
		if pg, ok := d.store[lpn+i]; ok {
			out = append(out, pg...)
		} else {
			out = append(out, make([]byte, d.pageSize)...)
		}
	}
	return out, nil
}
func (d *memDevice) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	for i := int64(0); i*int64(d.pageSize) < int64(len(data)); i++ {
		pg := make([]byte, d.pageSize)
		copy(pg, data[int(i)*d.pageSize:])
		d.store[lpn+i] = pg
	}
	return nil
}
func (d *memDevice) TrimPages(p *sim.Proc, lpn, count int64) error {
	for i := int64(0); i < count; i++ {
		delete(d.store, lpn+i)
	}
	return nil
}

func newRig(t *testing.T) (*sim.Engine, *Subsystem, *minfs.View) {
	t.Helper()
	eng := sim.NewEngine()
	sub := New(eng, Config{Registry: appset.Base().Clone()})
	dev := &memDevice{pageSize: 512, pages: 1 << 16, store: make(map[int64][]byte)}
	view := minfs.NewView(minfs.NewFS(512, 1<<16), dev)
	sub.AttachFS(view)
	return eng, sub, view
}

func TestSpawnGrepOverFS(t *testing.T) {
	eng, sub, view := newRig(t)
	var res TaskResult
	eng.Go("client", func(p *sim.Proc) {
		if err := view.WriteFile(p, "log.txt", []byte("ok\nerror one\nok\nerror two\n")); err != nil {
			t.Error(err)
			return
		}
		res = sub.Spawn(p, TaskSpec{Exec: "grep", Args: []string{"-c", "error", "log.txt"}})
	})
	eng.Run()
	if res.Err != nil {
		t.Fatalf("task error: %v", res.Err)
	}
	if strings.TrimSpace(string(res.Stdout)) != "2" {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	if res.Elapsed() <= 0 {
		t.Fatal("task consumed no virtual time")
	}
}

func TestSpawnScriptPipeline(t *testing.T) {
	eng, sub, view := newRig(t)
	var res TaskResult
	eng.Go("client", func(p *sim.Proc) {
		view.WriteFile(p, "data.txt", []byte("b\na\nb\nc\nb\n"))
		res = sub.Spawn(p, TaskSpec{Script: `cat data.txt | sort | uniq -c | sort -rn | head -n 1`})
	})
	eng.Run()
	if res.Err != nil {
		t.Fatalf("script error: %v (stderr %q)", res.Err, res.Stderr)
	}
	if !strings.Contains(string(res.Stdout), "3") || !strings.Contains(string(res.Stdout), "b") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestComputeTimeMatchesCalibration(t *testing.T) {
	eng, sub, view := newRig(t)
	payload := bytes.Repeat([]byte("some text to scan for the needle word\n"), 4000)
	var res TaskResult
	eng.Go("client", func(p *sim.Proc) {
		view.WriteFile(p, "big.txt", payload)
		start := p.Now()
		res = sub.Spawn(p, TaskSpec{Exec: "grep", Args: []string{"-c", "needle", "big.txt"}})
		_ = start
	})
	eng.Run()
	// Expected compute time: bytes / per-core grep throughput.
	want := cpu.ISPS().ComputeTime(cpu.ClassGrep, int64(len(payload)))
	got := res.Elapsed()
	if got < want {
		t.Fatalf("elapsed %v < compute floor %v", got, want)
	}
	if got > 3*want {
		t.Fatalf("elapsed %v more than 3x compute floor %v (IO model dominating a zero-cost device?)", got, want)
	}
}

// TestQuadCoreConcurrencyLimit runs the paper's one-core-per-task executor:
// the stock device would split each 1 MB scan across all four cores.
func TestQuadCoreConcurrencyLimit(t *testing.T) {
	eng, sub, view := newParRig(t, 1, nil)
	const tasks = 8
	var finish []sim.Time
	eng.Go("setup", func(p *sim.Proc) {
		view.WriteFile(p, "f.txt", bytes.Repeat([]byte("word "), 200_000)) // 1 MB
	})
	eng.Run()
	for i := 0; i < tasks; i++ {
		eng.Go("client", func(p *sim.Proc) {
			res := sub.Spawn(p, TaskSpec{Exec: "grep", Args: []string{"-c", "word", "f.txt"}})
			if res.Err != nil {
				t.Errorf("task: %v", res.Err)
			}
			finish = append(finish, p.Now())
		})
	}
	eng.Run()
	if len(finish) != tasks {
		t.Fatalf("%d tasks finished", len(finish))
	}
	// 8 equal tasks on 4 cores: two waves — the last completion should be
	// roughly 2x the first.
	first, last := finish[0], finish[0]
	for _, f := range finish {
		if f < first {
			first = f
		}
		if f > last {
			last = f
		}
	}
	ratio := float64(last) / float64(first)
	if ratio < 1.5 {
		t.Fatalf("last/first completion ratio %.2f; cores not limiting concurrency", ratio)
	}
}

func TestUnknownProgramFails(t *testing.T) {
	eng, sub, _ := newRig(t)
	var res TaskResult
	eng.Go("client", func(p *sim.Proc) {
		res = sub.Spawn(p, TaskSpec{Exec: "no-such-tool"})
	})
	eng.Run()
	if !errors.Is(res.Err, ErrNoProgram) || res.ExitCode != 127 {
		t.Fatalf("res = %+v", res)
	}
}

func TestDynamicTaskLoading(t *testing.T) {
	eng, sub, _ := newRig(t)
	var before, after TaskResult
	eng.Go("client", func(p *sim.Proc) {
		before = sub.Spawn(p, TaskSpec{Exec: "wordrev"})
		sub.LoadTask(apps.Func{
			ProgName:  "wordrev",
			CostClass: cpu.ClassWC,
			Body: func(ctx *apps.Context, args []string) error {
				data, _ := readAll(ctx)
				for i, j := 0, len(data)-1; i < j; i, j = i+1, j-1 {
					data[i], data[j] = data[j], data[i]
				}
				ctx.Stdout.Write(data)
				return nil
			},
		})
		after = sub.Spawn(p, TaskSpec{Exec: "wordrev", Stdin: []byte("abc")})
	})
	eng.Run()
	if before.ExitCode != 127 {
		t.Fatal("program existed before load")
	}
	if after.Err != nil || string(after.Stdout) != "cba" {
		t.Fatalf("after load: %+v", after)
	}
	st := sub.Status()
	found := false
	for _, n := range st.Programs {
		if n == "wordrev" {
			found = true
		}
	}
	if !found {
		t.Fatal("loaded program missing from status")
	}
}

func readAll(ctx *apps.Context) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(ctx.In())
	return buf.Bytes(), err
}

func TestMemoryBudgetEnforced(t *testing.T) {
	eng, sub, _ := newRig(t)
	var res TaskResult
	eng.Go("client", func(p *sim.Proc) {
		res = sub.Spawn(p, TaskSpec{Exec: "echo", MemBytes: 9 << 30}) // > 8 GB
	})
	eng.Run()
	if !errors.Is(res.Err, ErrNoMemory) {
		t.Fatalf("res.Err = %v", res.Err)
	}
}

func TestEnergyCharged(t *testing.T) {
	eng := sim.NewEngine()
	m := energy.NewMeter(eng)
	comp := m.Component("isps", cpu.ISPS().BaseWatts)
	sub := New(eng, Config{Registry: appset.Base().Clone(), Meter: comp})
	dev := &memDevice{pageSize: 512, pages: 1 << 16, store: make(map[int64][]byte)}
	view := minfs.NewView(minfs.NewFS(512, 1<<16), dev)
	sub.AttachFS(view)
	eng.Go("client", func(p *sim.Proc) {
		view.WriteFile(p, "f", bytes.Repeat([]byte("x"), 100_000))
		sub.Spawn(p, TaskSpec{Exec: "grep", Args: []string{"-c", "x", "f"}})
	})
	eng.Run()
	got := m.Snapshot()[0].ActiveJ
	if got <= 0 {
		t.Fatal("no compute energy charged")
	}
	// Energy should equal compute time x core watts.
	wantJ := cpu.ISPS().ComputeTime(cpu.ClassGrep, 100_000).Seconds() * cpu.ISPS().CoreActiveWatts
	if got < wantJ*0.99 || got > wantJ*1.01 {
		t.Fatalf("energy %g J, want ~%g J", got, wantJ)
	}
}

func TestThermalRisesUnderLoadAndCools(t *testing.T) {
	eng, sub, view := newRig(t)
	idle := sub.Temperature()
	eng.Go("setup", func(p *sim.Proc) {
		view.WriteFile(p, "f", bytes.Repeat([]byte("y"), 4_000_000))
	})
	eng.Run()
	// Saturate all four cores (~3.3s of bzip2 compute each) and sample the
	// die mid-burn, then after a long cool-down.
	for i := 0; i < 4; i++ {
		eng.Go("client", func(p *sim.Proc) {
			sub.Spawn(p, TaskSpec{Exec: "grep", Args: []string{"-c", "y", "f"}})
			sub.Spawn(p, TaskSpec{Exec: "bzip2", Args: []string{"f"}})
		})
	}
	var hot float64
	eng.Go("sampler", func(p *sim.Proc) {
		p.Wait(3 * time.Second)
		hot = sub.Temperature()
		p.Wait(10 * time.Minute)
	})
	eng.Run()
	cooled := sub.Temperature()
	if hot <= idle+5 {
		t.Fatalf("temperature did not rise under load: idle %.1f hot %.1f", idle, hot)
	}
	if cooled >= hot-1 {
		t.Fatalf("temperature did not cool after idle: hot %.1f cooled %.1f", hot, cooled)
	}
}

func TestStatusSnapshot(t *testing.T) {
	eng, sub, _ := newRig(t)
	st := sub.Status()
	if st.Cores != 4 {
		t.Fatalf("cores = %d", st.Cores)
	}
	if st.MemTotalBytes != 8<<30 {
		t.Fatalf("mem = %d", st.MemTotalBytes)
	}
	if len(st.Programs) == 0 {
		t.Fatal("no programs listed")
	}
	var res TaskResult
	eng.Go("client", func(p *sim.Proc) {
		res = sub.Spawn(p, TaskSpec{Exec: "echo", Args: []string{"hi"}})
	})
	eng.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if sub.Status().CompletedTasks != 1 {
		t.Fatal("completed count wrong")
	}
}

func TestSharedCoresConfig(t *testing.T) {
	// Shared-core mode (Biscuit ablation): the subsystem executes on an
	// externally supplied 2-wide station.
	eng := sim.NewEngine()
	shared := sim.NewResource(eng, 2)
	sub := New(eng, Config{Registry: appset.Base().Clone(), Cores: shared})
	if sub.Cores() != shared {
		t.Fatal("shared cores not used")
	}
	if sub.Status().Cores != 2 {
		t.Fatal("capacity should reflect shared resource")
	}
}
