package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/sim"
	"compstor/internal/ssd"
	"compstor/internal/trace"
)

// InterferenceResult quantifies the paper's central architectural claim:
// dedicated ISPS hardware keeps read/write performance unchanged during
// in-situ processing, while shared-core designs (Biscuit-style) degrade it.
type InterferenceResult struct {
	// Mean 4 KiB random-read latency and total reads completed in the
	// measurement window, for each configuration.
	BaselineLatency   time.Duration // no in-situ load
	DedicatedLatency  time.Duration // in-situ load, dedicated ISPS (CompStor)
	SharedLatency     time.Duration // in-situ load, shared controller cores
	BaselineP99       time.Duration
	DedicatedP99      time.Duration
	SharedP99         time.Duration
	BaselineReads     int64
	DedicatedReads    int64
	SharedReads       int64
	DedicatedSlowdown float64
	SharedSlowdown    float64
}

// AblationInterference measures random-read latency with and without
// concurrent in-situ compression, on dedicated-core and shared-core
// devices.
func AblationInterference(o Options) InterferenceResult {
	run := func(load bool, shared bool) (mean, p99 time.Duration, count int64) {
		sys := o.system(o.Obs.Scope(fmt.Sprintf("interference.load%t.shared%t", load, shared)),
			core.SystemConfig{CompStors: 1, Ablation: ssd.Ablation{SharedCores: shared}})
		defer sys.Close()
		eng, drive, client := sys.Eng, sys.Device(0).Drive, sys.Device(0).Client
		payload := bytes.Repeat([]byte("interference corpus line\n"), 20_000) // ~500 KB

		window := 400 * time.Millisecond
		var lats []time.Duration

		eng.Go("setup", func(p *sim.Proc) {
			stageFiles(p, client.FS(), cluster.File{Name: "big.txt", Data: payload})
		})
		eng.Run()

		if load {
			for i := 0; i < 4; i++ {
				eng.Go("insitu", func(p *sim.Proc) {
					for {
						if p.Now() > sim.Time(window) {
							return
						}
						runOK(p, client, core.Command{Exec: "bzip2", Args: []string{"big.txt"}})
					}
				})
			}
		}
		// Random-read workers at QD8, timed individually.
		drv := drive.Driver()
		maxLBA := drive.FTL().LogicalPages()
		for wk := 0; wk < 8; wk++ {
			eng.Go("reader", func(p *sim.Proc) {
				lba := int64(wk * 977)
				for p.Now() < sim.Time(window) {
					start := p.Now()
					lba = (lba*6364136223846793005 + 1442695040888963407) % maxLBA
					if lba < 0 {
						lba = -lba
					}
					if _, err := drv.Read(p, lba%maxLBA, 1); err != nil {
						panic(err)
					}
					lats = append(lats, p.Now().Sub(start))
				}
			})
		}
		eng.RunUntil(sim.Time(2 * window))
		eng.Run()
		if len(lats) == 0 {
			return 0, 0, 0
		}
		var total time.Duration
		for _, l := range lats {
			total += l
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return total / time.Duration(len(lats)), lats[len(lats)*99/100], int64(len(lats))
	}

	var r InterferenceResult
	o.logf("interference: baseline...")
	r.BaselineLatency, r.BaselineP99, r.BaselineReads = run(false, false)
	o.logf("interference: dedicated ISPS under load...")
	r.DedicatedLatency, r.DedicatedP99, r.DedicatedReads = run(true, false)
	o.logf("interference: shared cores under load...")
	r.SharedLatency, r.SharedP99, r.SharedReads = run(true, true)
	if r.BaselineLatency > 0 {
		r.DedicatedSlowdown = float64(r.DedicatedLatency) / float64(r.BaselineLatency)
		r.SharedSlowdown = float64(r.SharedLatency) / float64(r.BaselineLatency)
	}
	return r
}

// Render writes the interference report.
func (r InterferenceResult) Render(w io.Writer) {
	t := trace.NewTable("Ablation — 4 KiB random-read latency during in-situ processing",
		"configuration", "mean latency", "p99", "reads", "slowdown")
	t.AddRow("no in-situ load (baseline)", r.BaselineLatency, r.BaselineP99, r.BaselineReads, "1.00x")
	t.AddRow("CompStor (dedicated ISPS)", r.DedicatedLatency, r.DedicatedP99, r.DedicatedReads, fmt.Sprintf("%.2fx", r.DedicatedSlowdown))
	t.AddRow("shared controller cores (Biscuit-style)", r.SharedLatency, r.SharedP99, r.SharedReads, fmt.Sprintf("%.2fx", r.SharedSlowdown))
	t.Render(w)
}

// StripingResult compares channel-striped vs linear FTL allocation — the
// media parallelism that gives the ISPS its bandwidth edge.
type StripingResult struct {
	StripedMBps float64
	LinearMBps  float64
}

// AblationStriping measures sequential write throughput under both
// allocation policies.
func AblationStriping(o Options) StripingResult {
	run := func(striping bool) float64 {
		sys := o.system(o.Obs.Scope(fmt.Sprintf("striping.striped%t", striping)),
			core.SystemConfig{ConventionalSSD: true, Ablation: ssd.Ablation{LinearFTL: !striping}})
		defer sys.Close()
		eng, drv := sys.Eng, sys.Conventional.Driver()
		const chunk = 64
		total := int64(2048) // pages
		payload := bytes.Repeat([]byte{0xAB}, chunk*o.Geometry.PageSize)
		var elapsed sim.Duration
		eng.Go("writer", func(p *sim.Proc) {
			start := p.Now()
			for lba := int64(0); lba < total; lba += chunk {
				if err := drv.Write(p, lba, payload); err != nil {
					panic(err)
				}
			}
			elapsed = p.Now().Sub(start)
		})
		eng.Run()
		return mbps(total*int64(o.Geometry.PageSize), elapsed)
	}
	return StripingResult{StripedMBps: run(true), LinearMBps: run(false)}
}

// Render writes the striping report.
func (r StripingResult) Render(w io.Writer) {
	t := trace.NewTable("Ablation — FTL allocation policy, sequential write",
		"policy", "throughput")
	t.AddRow("channel-striped (production)", trace.MBps(r.StripedMBps*1e6))
	t.AddRow("linear (one channel at a time)", trace.MBps(r.LinearMBps*1e6))
	t.Render(w)
	fmt.Fprintf(w, "striping advantage: %.1fx\n", safeDiv(r.StripedMBps, r.LinearMBps))
}

// DirectPathResult compares the dedicated ISPS flash path against the
// loopback-through-NVMe ablation.
type DirectPathResult struct {
	DirectMBps float64
	ViaMBps    float64
}

// AblationDirectPath measures in-situ grep throughput with and without the
// dedicated flash path.
func AblationDirectPath(o Options) DirectPathResult {
	run := func(via bool) float64 {
		files := o.corpus()
		sys := o.system(o.Obs.Scope(fmt.Sprintf("directpath.via%t", via)),
			core.SystemConfig{CompStors: 1, Ablation: ssd.Ablation{ViaNVMePath: via}})
		defer sys.Close()
		eng, client := sys.Eng, sys.Device(0).Client
		var elapsed sim.Duration
		eng.Go("driver", func(p *sim.Proc) {
			stageFiles(p, client.FS(), files...)
			start := p.Now()
			p.Fork(4, func(int) string { return "task" }, func(sp *sim.Proc, wk int) {
				for i := wk; i < len(files); i += 4 {
					runOK(sp, client, core.Command{Exec: "grep", Args: []string{"-c", "the", files[i].Name}})
				}
			})
			elapsed = p.Now().Sub(start)
		})
		eng.Run()
		return mbps(totalBytes(files), elapsed)
	}
	return DirectPathResult{DirectMBps: run(false), ViaMBps: run(true)}
}

// Render writes the direct-path report.
func (r DirectPathResult) Render(w io.Writer) {
	t := trace.NewTable("Ablation — ISPS flash path, in-situ grep",
		"path", "throughput")
	t.AddRow("dedicated direct path (CompStor)", trace.MBps(r.DirectMBps*1e6))
	t.AddRow("loopback through protocol front-end", trace.MBps(r.ViaMBps*1e6))
	t.Render(w)
	fmt.Fprintf(w, "direct-path advantage: %.1fx\n", safeDiv(r.DirectMBps, r.ViaMBps))
}
