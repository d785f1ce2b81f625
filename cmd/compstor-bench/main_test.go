package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"compstor/internal/experiments"
	"compstor/internal/obs"
)

func experimentNames() []string {
	names := []string{runAll}
	for _, e := range experiments.Experiments() {
		names = append(names, e.Name)
	}
	return names
}

// assertNothingWritten checks a rejected invocation left no trace: no
// experiment output, no profile, nothing in (or of) the output directory.
func assertNothingWritten(t *testing.T, stdout *bytes.Buffer, paths ...string) {
	t.Helper()
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty: %q", stdout.String())
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err == nil {
			t.Errorf("%s was created", p)
		}
	}
}

// TestUnknownExperimentExitsCleanly: a bad -run name is rejected before
// the profile file or the output directory exist, with the valid names in
// the message.
func TestUnknownExperimentExitsCleanly(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	out := filepath.Join(dir, "out")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-run", "bogus", "-cpuprofile", prof, "-outdir", out}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
	}
	for _, name := range experimentNames() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("error does not list %q: %q", name, stderr.String())
		}
	}
	assertNothingWritten(t, &stdout, prof, out)
}

// TestUnusableOutdirExitsBeforeRunning: an -outdir that cannot be created
// fails the invocation up front instead of after the experiment has run.
func TestUnusableOutdirExitsBeforeRunning(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "cpu.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-run", "table3", "-cpuprofile", prof, "-outdir", filepath.Join(file, "sub")}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-outdir") {
		t.Errorf("error does not name -outdir: %q", stderr.String())
	}
	assertNothingWritten(t, &stdout, prof)
}

// TestRunWritesReportAndArtefact drives one simulated part end to end: it
// prints that part's report and nothing else (no per-component numbers on
// stdout), creates a missing -outdir, files the snapshot under the
// composite's artefact name, and writes -trace as valid JSON. -metrics is
// not a flag.
func TestRunWritesReportAndArtefact(t *testing.T) {
	dir := t.TempDir()
	out, tr := filepath.Join(dir, "new", "dir"), filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "table3", "-outdir", out, "-trace", tr}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, stderr.String())
	}
	o := experiments.PaperScaleOptions()
	o.Obs = obs.New()
	var want bytes.Buffer
	experiments.Table3(o).Render(&want)
	want.WriteString("\n" + strings.Repeat("=", 78) + "\n")
	if stdout.String() != want.String() {
		t.Errorf("stdout is not Table III's report, a blank line and the separator:\n%s\nwant:\n%s", stdout.String(), want.String())
	}
	js, err := os.ReadFile(filepath.Join(out, "BENCH_tables.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte(`"table3.compstor0.ftl.read"`)) {
		t.Error("BENCH_tables.json carries no table3 FTL read histogram")
	}
	if b, err := os.ReadFile(tr); err != nil || !json.Valid(b) {
		t.Errorf("%s: %v, or not valid JSON", tr, err)
	}
	stdout.Reset()
	if code := run([]string{"-run", "table3", "-metrics", filepath.Join(dir, "m.json")}, &stdout, &stderr); code != 2 {
		t.Errorf("-metrics: exit %d, want 2", code)
	}
	assertNothingWritten(t, &stdout, filepath.Join(dir, "m.json"))
}

// TestDocListsTheTable keeps the package comment's usage line in step with
// the experiment table, which it cannot be generated from.
func TestDocListsTheTable(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	want := "//\tcompstor-bench [-run " + strings.Join(experimentNames(), "|") + "]\n"
	if !bytes.Contains(src, []byte(want)) {
		t.Errorf("main.go's package comment lacks the usage line\n%s", want)
	}
}

// TestDiffRanksMovers: -diff ranks a counter that moved, lists a metric
// present in one file only, leaves unchanged metrics out, and sets apart a
// timeline mean taken over a different number of windows instead of
// ranking it.
func TestDiffRanksMovers(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s obs.Snapshot) string {
		s.Schema = obs.SchemaVersion
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err == nil {
			err = s.WriteJSON(f)
			f.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", obs.Snapshot{
		Counters:  []obs.CounterSnap{{Name: "flash.reads", Value: 100}, {Name: "same", Value: 7}, {Name: "gone", Value: 1}},
		Timelines: []obs.TimelineSnap{{Name: "ch0.busy", Mean: 0.02, Busy: make([]float64, 8)}},
	})
	b := write("b.json", obs.Snapshot{
		Counters:  []obs.CounterSnap{{Name: "flash.reads", Value: 25}, {Name: "same", Value: 7}},
		Timelines: []obs.TimelineSnap{{Name: "ch0.busy", Mean: 0.07, Busy: make([]float64, 1)}},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", a, b}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"2 metrics moved, 1 unchanged, 1 only in a, 0 only in b", "flash.reads", "-75.0%", "1 only in a:\n  gone", "ch0.busy.mean 0.02 → 0.07 over 8 → 1 windows"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "same") {
		t.Errorf("an unchanged counter is listed:\n%s", out)
	}
	stdout.Reset()
	if code := run([]string{"-diff", a}, &stdout, &stderr); code != 2 {
		t.Errorf("-diff with one file: exit %d, want 2", code)
	}
}

// heapAtRule is a stdout that forces a collection and records the live heap
// each time run prints the rule that follows an experiment's artefact.
type heapAtRule struct{ live []uint64 }

func (h *heapAtRule) Write(b []byte) (int, error) {
	if bytes.HasPrefix(b, []byte("=====")) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h.live = append(h.live, ms.HeapAlloc)
	}
	return len(b), nil
}

// TestFinishedExperimentIsFreed: a run holds on to no finished experiment's
// testbed, so the live heap after the last row is one experiment's leftovers,
// not the sum of every testbed the table built. A traced run frees them too:
// it shares only its tracer. Its case runs recovery alone, whose testbeds
// are the largest a shared root kept alive, because the whole table's trace
// records (1.2M spans at these flags) stay live until the file is written.
func TestFinishedExperimentIsFreed(t *testing.T) {
	dir := t.TempDir()
	for _, extra := range [][]string{
		{"-run", "all"},
		{"-run", "recovery", "-trace", filepath.Join(dir, "trace.json")},
	} {
		var stdout heapAtRule
		var stderr bytes.Buffer
		args := append([]string{"-books", "2", "-mean", "4096", "-devices", "1", "-outdir", dir}, extra...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d (stderr %q)", extra, code, stderr.String())
		}
		if len(stdout.live) == 0 {
			t.Fatalf("%v: no experiment finished", extra)
		}
		const limit = 100 << 20
		if last := stdout.live[len(stdout.live)-1]; last > limit {
			t.Errorf("%v: live heap after the last experiment is %d MB, want <= %d MB (after each: %v)", extra, last>>20, limit>>20, stdout.live)
		}
	}
}
