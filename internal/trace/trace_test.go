package trace

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Title", "name", "value")
	tb.AddRow("short", 1)
	tb.AddRow("much-longer-name", 123456.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines: %q", len(lines), out)
	}
	if lines[0] != "Title" {
		t.Fatalf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Fatalf("header %q", lines[1])
	}
	// Columns aligned: "value" column starts at the same offset everywhere.
	idx := strings.Index(lines[1], "value")
	if !strings.HasPrefix(lines[3][idx:], "1") {
		t.Fatalf("misaligned row: %q", lines[3])
	}
}

func TestBarScaling(t *testing.T) {
	full := bar("x", len("x"), 10, 10, 20)
	half := bar("y", len("y"), 5, 10, 20)
	if strings.Count(full, "#") != 20 {
		t.Fatalf("full bar: %q", full)
	}
	if strings.Count(half, "#") != 10 {
		t.Fatalf("half bar: %q", half)
	}
	if strings.Count(bar("z", len("z"), 0, 10, 20), "#") != 0 {
		t.Fatal("zero bar has hashes")
	}
	if strings.Count(bar("w", len("w"), 20, 10, 20), "#") != 20 {
		t.Fatal("overflow bar not clamped")
	}
}

func TestBarChart(t *testing.T) {
	var sb strings.Builder
	BarChart(&sb, "chart", []string{"a", "b"}, []float64{1, 2})
	out := sb.String()
	if !strings.Contains(out, "chart") || strings.Count(out, "|") != 2 {
		t.Fatalf("chart output %q", out)
	}
}

// Golden outputs pin the exact rendered bytes: alignment regressions show
// up as a diff, not just a property-check failure.

func TestTableGolden(t *testing.T) {
	tb := NewTable("T", "a", "bb")
	tb.AddRow("x", 1)
	tb.AddRow("longer", 2.5)
	want := "" +
		"T\n" +
		"a       bb \n" +
		"------  ---\n" +
		"x       1  \n" +
		"longer  2.5\n"
	if got := tb.String(); got != want {
		t.Fatalf("table golden mismatch:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

func TestBarGolden(t *testing.T) {
	if got, want := bar("cpu", len("cpu"), 5, 10, 10), "cpu        5 |#####"; got != want {
		t.Fatalf("Bar = %q, want %q", got, want)
	}
	// The label column sizes to the label — no truncation at a fixed width.
	long := "a.very.long.hierarchical.metric.name.busy"
	if got := bar(long, len(long), 5, 10, 10); !strings.HasPrefix(got, long+" ") {
		t.Fatalf("long label mangled: %q", got)
	}
}

func TestBarChartGoldenAlignment(t *testing.T) {
	var sb strings.Builder
	BarChart(&sb, "util", []string{"ch0", "compstor0.isps.cores.busy"}, []float64{1, 2})
	want := "" +
		"util\n" +
		"ch0                              1 |####################\n" +
		"compstor0.isps.cores.busy        2 |########################################\n"
	if got := sb.String(); got != want {
		t.Fatalf("barchart golden mismatch:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

func TestBytesFormatting(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", n, got, want)
		}
	}
	if MBps(2.5e6) != "2.50 MB/s" {
		t.Errorf("MBps = %q", MBps(2.5e6))
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(0.0)
	tb.AddRow(3.14159)
	tb.AddRow(88.17)
	tb.AddRow(4666.0)
	s := tb.String()
	for _, want := range []string{"0", "3.14", "88.2", "4666"} {
		if !strings.Contains(s, want) {
			t.Errorf("table %q missing %q", s, want)
		}
	}
}
