package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/isps"
	"compstor/internal/sim"
)

// wordFreqProg is the gawk workload: build a word-frequency table and
// report the distinct-word count (the paper's "searches text and makes
// changes based on user-specified patterns" class).
const wordFreqProg = `{ for (i = 1; i <= NF; i++) freq[$i]++ } END { n = 0; for (w in freq) n++; print n }`

// Workload describes one evaluation application: how to build its dataset
// from the plain corpus and how to invoke it on a file.
type Workload struct {
	Name string
	// Dataset derives the staged files from the plain corpus.
	Dataset func(plain []cluster.File) []cluster.File
	// Command builds the in-situ command for one staged file.
	Command func(name string) core.Command
}

// Spec converts the workload's command into a host task spec.
func (w Workload) Spec(name string) isps.TaskSpec {
	cmd := w.Command(name)
	return isps.TaskSpec{Exec: cmd.Exec, Args: cmd.Args, Script: cmd.Script, Stdin: cmd.Stdin}
}

func identityDataset(plain []cluster.File) []cluster.File { return plain }

// Workloads returns the paper's six evaluation applications.
func Workloads() []Workload {
	on := func(exec string, args ...string) func(name string) core.Command {
		return func(name string) core.Command {
			return core.Command{Exec: exec, Args: slices.Concat(args, []string{name})}
		}
	}
	return []Workload{
		{Name: "gzip", Dataset: identityDataset, Command: on("gzip")},
		{Name: "gunzip", Dataset: corpusGz, Command: on("gunzip")},
		{Name: "bzip2", Dataset: identityDataset, Command: on("bzip2")},
		{Name: "bunzip2", Dataset: corpusBz2, Command: on("bunzip2")},
		{Name: "grep", Dataset: identityDataset, Command: on("grep", "-c", "the")},
		{Name: "gawk", Dataset: identityDataset, Command: on("gawk", wordFreqProg)},
	}
}

// WorkloadByName looks a workload up.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("experiments: unknown workload %q", name)
}

// RunReport summarises one workload run, on a CompStor pool (RunPool) or on
// the Xeon host baseline (RunHost).
type RunReport struct {
	// Elapsed is the compute window: staging is excluded.
	Elapsed sim.Duration
	// PlainBytes is the plain corpus size. Throughput and energy are
	// normalised per byte of *plain* corpus (the paper's "per gigabyte
	// data"), regardless of whether the staged files are the compressed
	// variants.
	PlainBytes int64
	// Joules is the energy integrated over the window, snapshotted inside
	// the simulation: every ISPS component for a pool run, the host CPU for
	// a host run.
	Joules   float64
	Failures int   // a pool run's failed tasks; a host run panics at its first
	Err      error // the first failed task's error
}

// MBps is the run's throughput in MB/s of plain corpus.
func (r RunReport) MBps() float64 { return mbps(r.PlainBytes, r.Elapsed) }

// JPerGB is the run's energy per gigabyte of plain corpus.
func (r RunReport) JPerGB() float64 {
	if r.PlainBytes <= 0 {
		return 0
	}
	return r.Joules / (float64(r.PlainBytes) / 1e9)
}

// RunPool stages the workload's dataset across n CompStors, runs it over
// every file, and reports the map phase.
func RunPool(o Options, n int, w Workload) RunReport {
	plain := o.corpus()
	files := w.Dataset(plain)
	sys, pool := o.newCluster(o.Obs.Scope(fmt.Sprintf("%s.n%d", w.Name, n)), core.SystemConfig{CompStors: n})
	res := RunReport{PlainBytes: totalBytes(plain)}
	sys.Go("driver", func(p *sim.Proc) {
		staged, err := pool.Stage(p, cluster.Shard(files, n))
		if err != nil {
			panic(fmt.Sprintf("experiments: staging: %v", err))
		}
		start := p.Now()
		startJ := deviceEnergy(sys, n, p.Now())
		results := pool.MapFiles(p, staged, w.Command)
		res.Joules = deviceEnergy(sys, n, p.Now()) - startJ
		res.Elapsed = p.Now().Sub(start)
		for _, r := range results {
			if r.Err != nil { // a non-OK status arrives as cluster.ErrTaskFailed
				res.Failures++
				res.Err = cmp.Or(res.Err, r.Err)
			}
		}
	})
	sys.Run()
	sys.Close()
	return res
}

// RunHost stages the dataset on a conventional SSD and runs the workload on
// the Xeon host with all cores busy.
func RunHost(o Options, w Workload) RunReport {
	plain := o.corpus()
	files := w.Dataset(plain)
	sys := o.system(o.Obs.Scope(w.Name+".host"), core.SystemConfig{ConventionalSSD: true, WithHost: true})
	res := RunReport{PlainBytes: totalBytes(plain)}
	view := sys.Conventional.HostView()
	sys.Go("driver", func(p *sim.Proc) {
		stageFiles(p, view, files...)
		start := p.Now()
		startJ := sys.Host.Energy().Energy(p.Now())
		hostWorkers(p, sys, w, files)
		res.Joules = sys.Host.Energy().Energy(p.Now()) - startJ
		res.Elapsed = p.Now().Sub(start)
	})
	sys.Run()
	sys.Close()
	return res
}

// hostWorkers runs w over files on the Xeon host with every core busy: one
// proc per core, each taking every cores-th file. A failed task panics.
func hostWorkers(p *sim.Proc, sys *core.System, w Workload, files []cluster.File) {
	cores := sys.Host.Sub.Platform().Cores
	p.Fork(cores, func(wk int) string { return fmt.Sprintf("hostwork%d", wk) }, func(sp *sim.Proc, wk int) {
		for i := wk; i < len(files); i += cores {
			if r := sys.Host.Run(sp, w.Spec(files[i].Name)); r.Err != nil {
				panic(fmt.Sprintf("experiments: host %s %s: %v", w.Name, files[i].Name, r.Err))
			}
		}
	})
}

// deviceEnergy sums the ISPS components' energy at the current instant.
// It must be called from inside the simulation (energy snapshots taken
// after the run would mis-attribute active energy to the window).
func deviceEnergy(sys *core.System, n int, at sim.Time) float64 {
	var j float64
	for i := 0; i < n; i++ {
		if c := sys.Meter.Lookup(fmt.Sprintf("compstor%d/isps", i)); c != nil {
			j += c.Energy(at)
		}
	}
	return j
}

// mbps converts bytes over a duration to MB/s.
func mbps(bytes int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}
