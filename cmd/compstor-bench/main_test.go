package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compstor/internal/experiments"
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
// renders only that part, creates a missing -outdir, and files the
// snapshot under the composite's artefact name.
func TestRunWritesReportAndArtefact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "new", "dir")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "table3", "-outdir", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table III") || strings.Contains(stdout.String(), "Table II ") {
		t.Errorf("stdout is not Table III alone:\n%s", stdout.String())
	}
	js, err := os.ReadFile(filepath.Join(out, "BENCH_tables.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte(`"table3.compstor0.ftl.read"`)) {
		t.Error("BENCH_tables.json carries no table3 FTL read histogram")
	}
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
