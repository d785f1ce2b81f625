// Command bench is the repository's two-clock benchmark. It drives the
// simulated CompStor stack through its public functions only and reports,
// per workload, what a user of the system sees on both clocks: the
// *virtual* clock of the modelled hardware (MB/s, latency percentiles,
// J/GB — deterministic per seed) and the *host* clock of the simulator
// itself (wall seconds, bytes allocated — medians over repetitions).
//
// Usage (from the repository root, normally through bench/run.sh):
//
//	bench -workload scan|batch_apps|serve_mix|ftl_churn [-seed N] [-seconds S] [-trace 0|1]
//	bench -selfcheck [-seed N] [-seconds S]
//	bench -layers
//
// A workload run prints every metric by name with its unit, then one JSON
// object on the last line of standard output: with -trace 0 the
// end-to-end metrics, with -trace 1 the per-layer metrics of a separate
// instrumented repetition. It exits non-zero if any output fails the
// built-in oracle or the repetitions disagree on a virtual-clock number.
// README.md in this directory documents every metric and workload.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: scan, batch_apps, serve_mix or ftl_churn")
		seed      = flag.Int64("seed", 2018, "seed every input is generated from")
		seconds   = flag.Float64("seconds", 24, "host seconds to spend repeating the workload (at least three repetitions run)")
		traced    = flag.Int("trace", 0, "1 = instrumented repetition reporting per-layer metrics, 0 = end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice untraced and compare the two sets against the bounds")
		layers    = flag.Bool("layers", false, "time each layer's public entry points in isolation")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// One OS thread runs Go code: the engine hands control between
	// goroutines one at a time, so a second P would only absorb the garbage
	// collector and turn every hand-over into a cross-thread wake-up. On a
	// shared runner that measures the host's scheduler, not the simulator
	// (the same repetitions were 7-25% slower and several times noisier
	// with two).
	runtime.GOMAXPROCS(1)

	switch {
	case *selfcheck:
		os.Exit(selfCheck(os.Stdout, *seed, *seconds))
	case *layers:
		printMetrics(os.Stdout, "isolated layers", perLayer, isolatedLayers(1))
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *name, workloadNames())
			os.Exit(2)
		}
		os.Exit(runWorkload(os.Stdout, w, *seed, *seconds, *traced != 0))
	}
}
