package main

import (
	"fmt"
	"io"
	"math"
)

// selfCheck runs every workload twice, untraced, in one invocation and
// compares the two sets metric by metric against the catalogue's bounds:
// what the benchmark cannot reproduce within a bound on unchanged code it
// cannot gate on changed code. Virtual-clock metrics and the digest must
// agree exactly. It returns the process exit code.
func selfCheck(w io.Writer, seed int64, seconds float64) int {
	var sets [2][]*runResult
	for set := range sets {
		for _, wl := range workloads {
			fmt.Fprintf(w, "selfcheck: set %d, %s...\n", set+1, wl.name)
			sets[set] = append(sets[set], measure(wl, seed, seconds, 1, 3, false))
		}
	}
	bad := 0
	fmt.Fprintf(w, "%-11s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "gap", "bound")
	for i, wl := range workloads {
		a, b := sets[0][i], sets[1][i]
		for _, res := range []*runResult{a, b} {
			if !res.correct() {
				bad++
				for _, p := range res.problems {
					fmt.Fprintf(w, "PROBLEM: %s: %s\n", wl.name, p)
				}
			}
		}
		for _, d := range endToEnd {
			x, y := a.e2e[d.Name], b.e2e[d.Name]
			gap := math.Abs(x-y) / math.Min(math.Abs(x), math.Abs(y))
			verdict := ""
			switch {
			case d.Sim && x != y:
				verdict = "  NOT EXACT"
				bad++
			case gap > d.Bound:
				verdict = "  OVER BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-11s %-14s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", wl.name, d.Name, x, y, 100*gap, 100*d.Bound, verdict)
		}
		verdict := "equal"
		if a.digest != b.digest {
			verdict = "DIFFERENT: " + diffValues(a.sim, b.sim)
			bad++
		}
		fmt.Fprintf(w, "%-11s sim_digest %s %s %s\n", wl.name, a.digest, b.digest, verdict)
	}
	if bad > 0 {
		fmt.Fprintf(w, "selfcheck: FAILED, %d findings\n", bad)
		return 1
	}
	fmt.Fprintln(w, "selfcheck: ok")
	return 0
}
