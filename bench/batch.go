package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"strings"

	"compstor/internal/apps/bzip2x"
	"compstor/internal/apps/gzipx"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/cpu"
	"compstor/internal/energy"
	"compstor/internal/isps"
	"compstor/internal/minfs"
	"compstor/internal/sim"
)

const (
	batchBooks     = 174
	batchMeanBytes = 24 << 10
	batchClients   = 4 // in-situ clients: one per ISPS core
)

// wordFreq is the gawk workload of the paper's evaluation: build a
// word-frequency table and print the number of distinct words.
const wordFreq = `{ for (i = 1; i <= NF; i++) freq[$i]++ } END { n = 0; for (w in freq) n++; print n }`

// batchApp is one of the paper's six applications: which staged variant of
// a book it reads, how it is invoked, and how its result is checked.
type batchApp struct {
	name string
	// input maps a plain book name to the staged file the app reads.
	input func(book string) string
	args  func(file string) []string
	// output names the file the app writes ("" when it prints to stdout),
	// and decode turns that file's bytes back into the plain book.
	output func(file string) string
	decode func([]byte) ([]byte, error)
	// stdout is the expected standard output for a plain book.
	stdout func(plain []byte) string
}

func plainName(b string) string { return b }
func gzName(b string) string    { return "gz/" + strings.TrimPrefix(b, "books/") + ".gz" }
func bz2Name(b string) string   { return "bz2/" + strings.TrimPrefix(b, "books/") + ".bz2" }
func identity(b []byte) ([]byte, error) {
	return b, nil
}

var batchApps = []batchApp{
	{name: "grep", input: plainName,
		args:   func(f string) []string { return []string{"-c", "the", f} },
		stdout: func(p []byte) string { return wantGrepCount(p, "the") }},
	{name: "gawk", input: plainName,
		args:   func(f string) []string { return []string{wordFreq, f} },
		stdout: wantDistinctWords},
	{name: "gzip", input: plainName,
		args:   func(f string) []string { return []string{f} },
		output: func(f string) string { return f + ".gz" }, decode: gunzipStd},
	{name: "gunzip", input: gzName,
		args:   func(f string) []string { return []string{f} },
		output: func(f string) string { return strings.TrimSuffix(f, ".gz") }, decode: identity},
	{name: "bzip2", input: plainName,
		args:   func(f string) []string { return []string{f} },
		output: func(f string) string { return f + ".bz2" }, decode: bunzip2Std},
	{name: "bunzip2", input: bz2Name,
		args:   func(f string) []string { return []string{f} },
		output: func(f string) string { return strings.TrimSuffix(f, ".bz2") }, decode: identity},
}

// batchSide is one platform's pass over the six applications.
type batchSide struct {
	joules  map[string]float64      // per app, over its compute window
	elapsed map[string]sim.Duration // per app
	latency []float64               // per task, ms
}

// batchRep runs the paper's six applications over the corpus twice: in-situ
// on one CompStor, and on the Xeon host reading a conventional SSD over
// NVMe (Fig 8's shape). The compressed datasets are pre-built in set-up.
// Compute dominates the virtual side and the real gzip, bzip2 and awk
// kernels dominate the host side; outputs are written through the
// filesystem and the FTL, so the device is used the opposite way from scan.
func batchRep(r *rep) {
	r.clock.enter(phaseSetup)
	books := corpus(r.seed, r.scaled(batchBooks, 6), r.scaled(batchMeanBytes, 4<<10))
	plain := map[string][]byte{}
	staged := append([]cluster.File(nil), books...)
	for _, b := range books {
		plain[b.Name] = b.Data
		z, err := gzipx.Compress(b.Data)
		if err != nil {
			r.fail(1, "batch_apps: pre-compressing %s: %v", b.Name, err)
			return
		}
		staged = append(staged,
			cluster.File{Name: gzName(b.Name), Data: z},
			cluster.File{Name: bz2Name(b.Name), Data: bzip2x.Compress(b.Data, bzip2x.Options{})})
	}
	corpusBytes := totalBytes(books)
	outputs := crc32.NewIEEE()

	// verify checks one finished task against the oracle, reading written
	// files back through view.
	verify := func(p *sim.Proc, view *minfs.View, side string, app batchApp, book string, stdout []byte, err error) {
		r.attempted++
		if err != nil {
			r.fail(1, "batch_apps: %s %s %s: %v", side, app.name, book, err)
			return
		}
		if app.stdout != nil {
			if got, want := string(stdout), app.stdout(plain[book]); got != want {
				r.fail(1, "batch_apps: %s %s %s printed %q, want %q", side, app.name, book, got, want)
			}
			outputs.Write(stdout)
			return
		}
		raw, err := view.ReadFile(p, app.output(app.input(book)))
		if err == nil {
			outputs.Write(raw)
			raw, err = app.decode(raw)
		}
		if err != nil || !bytes.Equal(raw, plain[book]) {
			r.fail(1, "batch_apps: %s %s %s: output does not expand to the plain book (%v)", side, app.name, book, err)
		}
	}

	// In-situ side: one CompStor, four closed-loop clients.
	dev := batchSide{joules: map[string]float64{}, elapsed: map[string]sim.Duration{}}
	{
		sys := r.system("insitu", core.SystemConfig{CompStors: 1, Geometry: benchGeometry})
		pool := cluster.NewPool(sys.Eng, sys.Devices)
		pool.SetObs(r.scope("insitu"))
		sys.Go("driver", func(p *sim.Proc) {
			if _, err := pool.Stage(p, [][]cluster.File{staged}); err != nil {
				r.fail(1, "batch_apps: staging: %v", err)
				return
			}
			for _, app := range batchApps {
				cmds := make([]core.Command, len(books))
				for i, b := range books {
					cmds[i] = core.Command{Exec: app.name, Args: app.args(app.input(b.Name))}
				}
				r.clock.enter(phaseMeasured)
				sp := r.tr.begin("batch/insitu/"+app.name, p.Now())
				t0, j0 := p.Now(), ispsJoules(sys, p.Now())
				out := closedLoop(p, pool, batchClients, [][]core.Command{cmds})[0]
				dev.elapsed[app.name] = p.Now().Sub(t0)
				dev.joules[app.name] = ispsJoules(sys, p.Now()) - j0
				sp.end(p.Now())
				r.clock.enter(phaseOff)
				for i, o := range out {
					var err error
					if !o.ok() {
						err = fmt.Errorf("%s", taskError(o))
					}
					var stdout []byte
					if o.res.Resp != nil {
						stdout = o.res.Resp.Stdout
					}
					verify(p, sys.Device(0).Client.FS(), "in-situ", app, books[i].Name, stdout, err)
					dev.latency = append(dev.latency, ms(o.latency))
				}
				r.clock.enter(phaseSetup)
			}
			r.clock.enter(phaseOff)
		})
		r.hash("batch.insitu.end", r.finish(sys))
		r.hash("batch.insitu.ftl", sys.Device(0).Drive.FTL().Stats())
		r.hash("batch.insitu.nvme", sys.Device(0).Drive.Controller().Stats())
	}
	if r.failed > 0 {
		return
	}

	// Host side: the Xeon runs the same programs with every core busy,
	// reading and writing a conventional SSD through NVMe.
	host := batchSide{joules: map[string]float64{}, elapsed: map[string]sim.Duration{}}
	{
		r.clock.enter(phaseSetup)
		sys := r.system("xeon", core.SystemConfig{ConventionalSSD: true, WithHost: true, Geometry: benchGeometry})
		view := sys.Conventional.HostView()
		sys.Go("driver", func(p *sim.Proc) {
			for _, f := range staged {
				if err := view.WriteFile(p, f.Name, f.Data); err != nil {
					r.fail(1, "batch_apps: host staging %s: %v", f.Name, err)
					return
				}
			}
			if err := view.Flush(p); err != nil {
				r.fail(1, "batch_apps: host staging flush: %v", err)
				return
			}
			workers := sys.Host.Sub.Platform().Cores
			for _, app := range batchApps {
				results := make([]isps.TaskResult, len(books))
				r.clock.enter(phaseMeasured)
				sp := r.tr.begin("batch/xeon/"+app.name, p.Now())
				t0, j0 := p.Now(), sys.Host.Energy().Energy(p.Now())
				var wg sim.WaitGroup
				wg.Add(workers)
				for w := 0; w < workers; w++ {
					w := w
					sys.Eng.Go(fmt.Sprintf("hostwork%d", w), func(wp *sim.Proc) {
						defer wg.Done()
						for i := w; i < len(books); i += workers {
							results[i] = sys.Host.Run(wp, isps.TaskSpec{Exec: app.name, Args: app.args(app.input(books[i].Name))})
						}
					})
				}
				wg.Wait(p)
				host.elapsed[app.name] = p.Now().Sub(t0)
				host.joules[app.name] = sys.Host.Energy().Energy(p.Now()) - j0
				sp.end(p.Now())
				r.clock.enter(phaseOff)
				for i, res := range results {
					verify(p, view, "xeon", app, books[i].Name, res.Stdout, res.Err)
				}
				r.clock.enter(phaseSetup)
			}
			r.clock.enter(phaseOff)
		})
		r.hash("batch.xeon.end", r.finish(sys))
		r.hash("batch.xeon.ftl", sys.Conventional.FTL().Stats())
		r.hash("batch.xeon.nvme", sys.Conventional.Controller().Stats())
	}
	r.hash("batch.outputs", outputs.Sum32())

	// Fig 8: J per plain GB, twelve cells against the paper's bars.
	var devT sim.Duration
	var devJ, hostJ, devJPerGB, errPct float64
	for _, app := range batchApps {
		devT += dev.elapsed[app.name]
		devJ += dev.joules[app.name]
		hostJ += host.joules[app.name]
		d := energy.JoulesPerGB(dev.joules[app.name], corpusBytes)
		h := energy.JoulesPerGB(host.joules[app.name], corpusBytes)
		devJPerGB += d / float64(len(batchApps))
		if pd, ph, ok := cpu.PaperFig8(cpu.Class(app.name)); ok {
			errPct += (math.Abs(d-pd)/pd + math.Abs(h-ph)/ph) * 100 / float64(2*len(batchApps))
		}
	}
	r.sim["sim_mbps"] = mbps(int64(len(batchApps))*corpusBytes, devT)
	r.sim["sim_j_per_gb"] = devJPerGB
	r.sim["model.paper_err_pct"] = errPct
	r.sim["energy.isps_j"] = devJ
	r.sim["energy.host_j"] = hostJ
	if devJ > 0 {
		r.sim["energy.xeon_over_compstor"] = hostJ / devJ
	}
	r.latency("sim_mean_ms", "sim_p99_ms", dev.latency)
}
