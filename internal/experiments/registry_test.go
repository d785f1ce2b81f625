package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"compstor/internal/obs"
)

// rowRun is one run of a row: the structured result, the rendered report
// and the scope's snapshot.
type rowRun struct {
	rep  Report
	out  []byte
	snap obs.Snapshot
}

// runRow runs one row of the table as compstor-bench does — a fresh root,
// a scope named after the artefact.
func runRow(e Experiment) rowRun {
	o := tinyOptions()
	o.Obs = obs.New().Scope(e.Artefact())
	rep := e.Run(o)
	var out bytes.Buffer
	rep.Render(&out)
	return rowRun{rep, out.Bytes(), o.Obs.Snapshot(e.Artefact())}
}

// firstRuns holds each row's first run, made once and shared by
// TestRegistry and the named claim tests, so a claim never costs a rerun.
var firstRuns = func() map[string]func() rowRun {
	m := map[string]func() rowRun{}
	for _, e := range Experiments() {
		m[e.Name] = sync.OnceValue(func() rowRun { return runRow(e) })
	}
	return m
}()

// rowReport returns the R in row's first run, failing unless the row's
// render mentions each of mentions.
func rowReport[R Report](t *testing.T, row string, mentions ...string) R {
	t.Helper()
	run := firstRuns[row]()
	for _, m := range mentions {
		if !bytes.Contains(run.out, []byte(m)) {
			t.Errorf("%s render does not mention %q", row, m)
		}
	}
	r, ok := findReport[R](run.rep)
	if !ok {
		t.Fatalf("row %s has no %T", row, r)
	}
	return r
}

// findReport returns the first R in rep, looking inside composites.
func findReport[R Report](rep Report) (R, bool) {
	if rs, ok := rep.(reports); ok {
		for _, sub := range rs {
			if r, ok := findReport[R](sub); ok {
				return r, true
			}
		}
	}
	r, ok := rep.(R)
	return r, ok
}

// TestRegistry holds every row of the experiment table to the contract the
// driver and CI rely on: unique names, parts that point at a real
// composite, and a run that is a pure function of its options — the same
// structured result, report bytes and snapshot bytes twice over. Each
// row's result must then hold its claims (claims_test.go), and a row that
// simulates anything must leave at least one latency histogram in its
// artefact, or the BENCH file explains nothing.
func TestRegistry(t *testing.T) {
	table := Experiments()
	names := map[string]bool{}
	for _, e := range table {
		if e.Name == "" || names[e.Name] {
			t.Fatalf("experiment name %q is empty or repeated", e.Name)
		}
		names[e.Name] = true
	}
	for _, e := range table {
		if e.PartOf != "" && !names[e.PartOf] {
			t.Errorf("%s is part of %q, which is not in the table", e.Name, e.PartOf)
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel() // rows share nothing; the long ones overlap
			run1, run2 := firstRuns[e.Name](), runRow(e)
			if !reflect.DeepEqual(run1.rep, run2.rep) {
				t.Errorf("results differ across identical runs:\n%+v\nvs\n%+v", run1.rep, run2.rep)
			}
			if len(run1.out) == 0 || !bytes.Equal(run1.out, run2.out) {
				t.Errorf("rendered reports empty or different across identical runs:\n%s\nvs\n%s", run1.out, run2.out)
			}
			var js1, js2 bytes.Buffer
			if err := run1.snap.WriteJSON(&js1); err != nil {
				t.Fatal(err)
			}
			if err := run2.snap.WriteJSON(&js2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js1.Bytes(), js2.Bytes()) {
				t.Error("snapshots differ across identical runs")
			}
			if claim(t, run1.rep) && len(run1.snap.Histograms) == 0 {
				t.Error("simulated, but the snapshot has no histogram")
			}
		})
	}
}

// TestEveryRowReleasesItsGoroutines: every top-level row shuts down each
// engine it builds, so no parked proc or pooled worker coroutine outlives
// the run. Not parallel, so no other test's goroutines come or go while a
// row runs.
func TestEveryRowReleasesItsGoroutines(t *testing.T) {
	for _, e := range Experiments() {
		if e.PartOf != "" {
			continue
		}
		before := settledGoroutines()
		runRow(e)
		if after := settledGoroutines(); after != before {
			t.Errorf("%s: %d goroutines before the run, %d after", e.Name, before, after)
		}
	}
}

// settledGoroutines returns the goroutine count once goroutines merely on
// their way out have gone; a leaked coroutine stays and holds it up.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for quiet := 0; quiet < 5; quiet++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, quiet = m, 0
		}
	}
	return n
}
