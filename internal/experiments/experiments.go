// Package experiments reproduces every table and figure of the CompStor
// paper's evaluation on the simulated platform. Each experiment is a
// function returning structured results plus a renderer, shared between
// cmd/compstor-bench and the repository's testing.B benchmarks;
// Experiments is the table of all of them, one row each.
//
// Scale note: the paper's corpus is 348 books / 11.3 GB on a 24 TB device.
// The default options use the same file count at a reduced mean size and a
// 4 GiB-class device; every result is normalised (MB/s, J/GB), so the
// shapes — who wins, by what factor, where crossovers fall — carry over.
// EXPERIMENTS.md records paper-vs-measured for each artefact.
package experiments

import (
	"fmt"
	"io"
	"time"

	"compstor/internal/apps/appset"
	"compstor/internal/apps/bzip2x"
	"compstor/internal/apps/gzipx"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/flash"
	"compstor/internal/minfs"
	"compstor/internal/obs"
	"compstor/internal/sim"
	"compstor/internal/ssd"
	"compstor/internal/textgen"
)

// Options tunes experiment scale.
type Options struct {
	// Corpus synthesis.
	Seed          int64
	Books         int
	MeanBookBytes int
	// DeviceCounts is the x-axis of the scaling figures.
	DeviceCounts []int
	// Geometry for every simulated drive.
	Geometry flash.Geometry
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Obs, when non-nil, instruments every system the experiment builds.
	// Callers usually pass a per-experiment scope (root.Scope("fig7")) so
	// metric names from different experiments stay apart; each measurement
	// point derives a further sub-scope (e.g. "fig7.n4.compstor0.ftl.read").
	Obs *obs.Obs
}

// DefaultOptions returns the fast laptop-scale configuration used by tests
// and `go test -bench`.
func DefaultOptions() Options {
	return Options{
		Seed:          2018,
		Books:         48,
		MeanBookBytes: 16 << 10,
		DeviceCounts:  []int{1, 2, 4, 8},
		// 16 channels (the paper's parallelism) x 4 dies: enough die-level
		// write bandwidth (~436 MB/s) that host-side decompression stays
		// compute-bound, as on the paper's testbed.
		Geometry: flash.Geometry{
			Channels:      16,
			DiesPerChan:   4,
			PlanesPerDie:  1,
			BlocksPerPlan: 64,
			PagesPerBlock: 64,
			PageSize:      4096,
		},
	}
}

// PaperScaleOptions returns the heavier configuration for the standalone
// bench binary (348 books like the paper, larger means).
func PaperScaleOptions() Options {
	o := DefaultOptions()
	o.Books = 348
	o.MeanBookBytes = 24 << 10
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// corpus synthesises the plain-text book set.
func (o Options) corpus() []cluster.File {
	books := textgen.Corpus(textgen.Config{Seed: o.Seed, Books: o.Books, MeanBookBytes: o.MeanBookBytes})
	files := make([]cluster.File, len(books))
	for i, b := range books {
		files[i] = cluster.File{Name: b.Name, Data: b.Data}
	}
	return files
}

// corpusGz returns the corpus pre-compressed with our gzip (for gunzip
// workloads), as the paper's dataset ships compressed books.
func corpusGz(files []cluster.File) []cluster.File {
	out := make([]cluster.File, len(files))
	for i, f := range files {
		z, err := gzipx.Compress(f.Data)
		if err != nil {
			panic(err)
		}
		out[i] = cluster.File{Name: f.Name + ".gz", Data: z}
	}
	return out
}

// corpusBz2 returns the corpus pre-compressed with our bzip2.
func corpusBz2(files []cluster.File) []cluster.File {
	out := make([]cluster.File, len(files))
	for i, f := range files {
		out[i] = cluster.File{Name: f.Name + ".bz2", Data: bzip2x.Compress(f.Data, bzip2x.Options{})}
	}
	return out
}

// system builds a simulated platform at the experiment's geometry with the
// stock application set, instrumented under scope; cfg says what is in it.
func (o Options) system(scope *obs.Obs, cfg core.SystemConfig) *core.System {
	cfg.Registry, cfg.Geometry, cfg.Obs = appset.Base(), o.Geometry, scope
	return core.NewSystem(cfg)
}

// newCluster is system plus the pool that drives its CompStors, both
// instrumented under scope.
func (o Options) newCluster(scope *obs.Obs, cfg core.SystemConfig) (*core.System, *cluster.Pool) {
	sys := o.system(scope, cfg)
	pool := cluster.NewPool(sys.Eng, sys.Devices)
	pool.SetObs(scope)
	return sys, pool
}

// closedLoop issues total requests through b with every dispatch slot of
// the pool kept busy: PerDeviceTasks x Size workers (named label0,
// label1, ...) each send their next request only once the previous one has
// returned. cmd builds request idx; done sees its result and latency.
func closedLoop(p *sim.Proc, pool *cluster.Pool, label string, total int,
	b cluster.Balancer, cmd func(idx int) core.Command, done func(idx int, r cluster.TaskResult, lat sim.Duration)) {
	next := 0
	p.Fork(pool.PerDeviceTasks*pool.Size(), func(w int) string { return fmt.Sprintf("%s%d", label, w) }, func(sp *sim.Proc, _ int) {
		for next < total {
			idx := next
			next++
			t0 := sp.Now()
			r := pool.Dispatch(sp, b, cmd(idx))
			done(idx, r, sp.Now().Sub(t0))
		}
	})
}

// calibrate measures an n-device cluster's closed-loop capacity on the
// request stream cmd, with data replicated as serve.txt: every dispatch
// slot kept busy for total requests. It returns sustained requests/s and
// the p99 latency at saturation — the baseline SLOs are derived from. The
// latencies are mirrored into the artefact as calibrate.latency.
func (o Options) calibrate(n int, data []byte, total int, cmd func(idx int) core.Command) (rps float64, p99 time.Duration) {
	scope := o.Obs.Scope("calibrate")
	sys, pool := o.newCluster(scope, core.SystemConfig{CompStors: n})
	var hist obs.Histogram
	snapHist := scope.Histogram("latency")
	var elapsed sim.Duration
	sys.Go("driver", func(p *sim.Proc) {
		if err := pool.StageReplicated(p, []cluster.File{{Name: "serve.txt", Data: data}}); err != nil {
			panic(fmt.Sprintf("calibration stage: %v", err))
		}
		start := p.Now()
		closedLoop(p, pool, "cal", total, cluster.LeastOutstanding{}, cmd,
			func(idx int, r cluster.TaskResult, lat sim.Duration) {
				if r.Err != nil {
					panic(fmt.Sprintf("calibration req %d: %v", idx, r.Err))
				}
				hist.Observe(lat)
				snapHist.Observe(lat)
			})
		elapsed = p.Now().Sub(start)
	})
	sys.Run()
	sys.Close()
	return float64(total) / elapsed.Seconds(), hist.Quantile(0.99)
}

// scanFileBytes sizes the one large file the single-file scan experiments
// read: Books × MeanBookBytes (0.8× the corpus), clamped to [4 MiB, 64 MiB].
func (o Options) scanFileBytes() int {
	return int(min(max(int64(o.Books)*int64(o.MeanBookBytes), 4<<20), 64<<20))
}

// scanRun stages data as scan.txt on a fresh single-device system built
// from cfg (which read path, how many scan chunks) and times one cold
// in-situ run of cmd over it through the agent path. It returns the scan's
// stdout and duration, and the drive for its counters.
func (o Options) scanRun(scope string, cfg core.SystemConfig, cmd core.Command, data []byte) (string, sim.Duration, *ssd.SSD) {
	cfg.CompStors = 1
	sys := o.system(o.Obs.Scope(scope), cfg)
	var elapsed sim.Duration
	var stdout string
	sys.Go("driver", func(p *sim.Proc) {
		cl := sys.Device(0).Client
		stageFiles(p, cl.FS(), cluster.File{Name: "scan.txt", Data: data})
		start := p.Now()
		stdout = string(runOK(p, cl, cmd).Stdout)
		elapsed = p.Now().Sub(start)
	})
	sys.Run()
	sys.Close()
	return stdout, elapsed, sys.Device(0).Drive
}

// stageFiles writes files through view and flushes it. A failure panics with
// its cause: a run over data that never landed must not be timed.
func stageFiles(p *sim.Proc, view *minfs.View, files ...cluster.File) {
	for _, f := range files {
		if err := view.WriteFile(p, f.Name, f.Data); err != nil {
			panic(fmt.Sprintf("experiments: staging %s: %v", f.Name, err))
		}
	}
	if err := view.Flush(p); err != nil {
		panic(fmt.Sprintf("experiments: staging flush: %v", err))
	}
}

// runOK runs cmd through client and returns its response, panicking with the
// cause unless the command ran and exited OK.
func runOK(p *sim.Proc, client *core.Client, cmd core.Command) *core.Response {
	resp, err := client.Run(p, cmd)
	if err != nil || resp.Status != core.StatusOK {
		panic(fmt.Sprintf("experiments: %s %q: err=%v resp=%+v", cmd.Exec, cmd.Args, err, resp))
	}
	return resp
}

func totalBytes(files []cluster.File) int64 {
	var n int64
	for _, f := range files {
		n += int64(len(f.Data))
	}
	return n
}
