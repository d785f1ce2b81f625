// Command compstor-bench regenerates every table and figure of the
// CompStor paper's evaluation on the simulated platform.
//
// Usage:
//
//	compstor-bench [-run all|tables|table1|table2|table3|table4|fig1|fig6|fig7|fig8|degraded|recovery|scaleup|serving|tail|ablations]
//	               [-books N] [-mean BYTES] [-devices 1,2,4,8] [-v]
//	               [-outdir DIR] [-trace out.json]
//	               [-cpuprofile out.pprof] [-memprofile out.pprof]
//	compstor-bench -diff a.json b.json
//
// The -run names are the rows of experiments.Experiments, in the order
// "all" runs them. Results are normalised (MB/s, J/GB) so the paper's
// shapes carry over to the scaled corpus; EXPERIMENTS.md records
// paper-vs-measured values.
//
// Stdout carries the experiments' reports and nothing else. Every
// per-component number goes to BENCH_<name>.json, one machine-readable
// snapshot per experiment (counters, per-layer latency histograms,
// utilization timelines). -trace enables sim-time span tracing and writes
// a Chrome trace-event file loadable in Perfetto (ui.perfetto.dev).
//
// -diff runs nothing: it prints the metrics that moved most between two
// BENCH_<name>.json files (counters, histogram quantiles, timeline means).
//
// Every number printed is on the simulator's virtual clock. How fast the
// simulator itself runs on the host is measured by the repository
// benchmark, `bash bench/run.sh`; -cpuprofile labels its samples per
// experiment for the same question about one invocation.
//
// A bad flag value, an unknown experiment or an unusable -outdir exits 2
// before anything is run or written. Profiles and partial artefacts are
// flushed on SIGINT and on experiment panics, so an interrupted run still
// yields a usable -cpuprofile and BENCH JSON.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"compstor/internal/experiments"
	"compstor/internal/obs"
)

// runAll is the -run value that selects every experiment.
const runAll = "all"

// artifacts owns every output the binary may need to flush early: on
// SIGINT or on an experiment panic, flush() stops the CPU profile and
// writes the heap profile, trace, and a partial
// BENCH_<name>.json for the experiment that was running; completion calls
// the same code. mu guards the mutable bookkeeping against the signal
// goroutine; the obs data itself is only read best-effort on an early flush.
type artifacts struct {
	trace     *obs.Obs // the root whose tracer every experiment's root records into
	stderr    io.Writer
	outDir    string
	cpuFile   *os.File
	memPath   string
	tracePath string

	mu sync.Mutex
	// current experiment mid-run, "" when idle; written as a partial
	// snapshot on early flush.
	currentName  string
	currentScope *obs.Obs

	flushed bool
}

// setCurrent records (or clears, with "") the experiment mid-run.
func (a *artifacts) setCurrent(name string, scope *obs.Obs) {
	a.mu.Lock()
	a.currentName, a.currentScope = name, scope
	a.mu.Unlock()
}

func (a *artifacts) benchPath(name string) string {
	return filepath.Join(a.outDir, "BENCH_"+name+".json")
}

// write creates path with fn's output, reporting a failure on stderr.
func (a *artifacts) write(path string, fn func(io.Writer) error) bool {
	f, err := os.Create(path)
	if err == nil {
		err = fn(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(a.stderr, "%s: %v\n", path, err)
	}
	return err == nil
}

// flush writes everything that has been requested, once, and reports
// whether all of it was written; a failure does not stop the remaining
// outputs (partial data beats none).
func (a *artifacts) flush() bool {
	a.mu.Lock()
	if a.flushed {
		a.mu.Unlock()
		return true
	}
	a.flushed = true
	name, scope := a.currentName, a.currentScope
	a.mu.Unlock()
	ok := true
	if a.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := a.cpuFile.Close(); err != nil {
			fmt.Fprintf(a.stderr, "cpuprofile: %v\n", err)
			ok = false
		}
	}
	if name != "" && scope != nil {
		// The experiment was cut short: persist what its scope has so far.
		ok = a.write(a.benchPath(name), scope.Snapshot(name).WriteJSON) && ok
	}
	if a.tracePath != "" {
		ok = a.write(a.tracePath, a.trace.WriteTrace) && ok
	}
	if a.memPath != "" {
		runtime.GC()
		ok = a.write(a.memPath, pprof.WriteHeapProfile) && ok
	}
	return ok
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	table := experiments.Experiments()
	names := []string{runAll}
	for _, e := range table {
		names = append(names, e.Name)
	}

	fs := flag.NewFlagSet("compstor-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runName := fs.String("run", runAll, "experiment to run: "+strings.Join(names, ", "))
	books := fs.Int("books", 0, "number of corpus files (0 = paper-scale default of 348)")
	mean := fs.Int("mean", 0, "book-size scale in bytes: sizes are uniform in 0.5–2× it, averaging 1.25× (0 = default)")
	devices := fs.String("devices", "", "comma-separated device counts for the scaling figures")
	verbose := fs.Bool("v", false, "log progress")
	outDir := fs.String("outdir", ".", "directory for BENCH_<name>.json snapshots (created if missing)")
	tracePath := fs.String("trace", "", "enable span tracing and write Chrome trace-event JSON here")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile here (samples carry an 'experiment' pprof label)")
	memProfile := fs.String("memprofile", "", "write a heap profile here")
	diff := fs.Bool("diff", false, "print the top movers between the two BENCH_<name>.json files given as arguments; run nothing")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *diff || fs.NArg() > 0 {
		if !*diff || fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: compstor-bench -diff a.json b.json")
			return 2
		}
		if err := diffSnapshots(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	opt := experiments.PaperScaleOptions()
	if *books > 0 {
		opt.Books = *books
	}
	if *mean > 0 {
		opt.MeanBookBytes = *mean
	}
	if *devices != "" {
		opt.DeviceCounts = nil
		for _, s := range strings.Split(*devices, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fmt.Fprintf(stderr, "bad -devices element %q\n", s)
				return 2
			}
			opt.DeviceCounts = append(opt.DeviceCounts, n)
		}
	}
	if *verbose {
		opt.Log = stderr
	}
	var selected []experiments.Experiment
	for _, e := range table {
		if e.Name == *runName || (*runName == runAll && e.PartOf == "") {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "unknown experiment %q (want one of: %s)\n", *runName, strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "-outdir: %v\n", err)
		return 2
	}

	// Each experiment gets a root of its own: a root's CounterFuncs capture
	// the drives, so a shared one would keep every finished testbed alive.
	// The roots share one tracer, whose one trace file covers every
	// experiment.
	trace := obs.New()
	if *tracePath != "" {
		trace.EnableTrace()
	}

	art := &artifacts{
		trace:     trace,
		stderr:    stderr,
		outDir:    *outDir,
		memPath:   *memProfile,
		tracePath: *tracePath,
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		art.cpuFile = f
	}

	// SIGINT/SIGTERM: flush profiles and partial artefacts, then exit 130.
	// Best effort — the simulator may be mid-event on the main goroutine.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case sig := <-sigc:
			fmt.Fprintf(stderr, "\n%v: flushing profiles and partial artefacts...\n", sig)
			art.flush()
			os.Exit(130)
		case <-done:
		}
	}()
	// Experiment panics (model bugs, impossible configs): keep the
	// diagnostics but flush first so the failure comes with its profile.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "experiment failed: %v\nflushing profiles and partial artefacts...\n", r)
			art.flush()
			panic(r)
		}
	}()

	for _, e := range selected {
		name := e.Artefact()
		o := opt
		o.Obs = trace.Fresh().Scope(name)
		art.setCurrent(name, o.Obs)
		// The label tags the experiment's samples in the CPU profile, so
		// pprof can attribute host time per experiment (`pprof -tagfocus`).
		pprof.Do(context.Background(), pprof.Labels("experiment", name), func(context.Context) {
			e.Run(o).Render(stdout)
		})
		art.setCurrent("", nil)
		if !art.write(art.benchPath(name), o.Obs.Snapshot(name).WriteJSON) {
			art.flush()
			return 1
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, strings.Repeat("=", 78))
	}
	if !art.flush() {
		return 1
	}
	return 0
}
