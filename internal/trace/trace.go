// Package trace renders the benchmark harness's tables and ASCII bar
// charts — the textual equivalents of the paper's figures.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned-column table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmtFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Render writes the table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// bar renders one bar with an explicit label-column width, so a chart's
// rows align on the widest label (the same auto-sizing Table.Render does
// for its columns) instead of truncating at a fixed width.
func bar(label string, labelW int, value, top float64, width int) string {
	if width <= 0 {
		width = 40
	}
	n := 0
	if top > 0 {
		n = min(max(int(value/top*float64(width)), 0), width)
	}
	return fmt.Sprintf("%-*s %8s |%s", labelW, label, fmtFloat(value), strings.Repeat("#", n))
}

// BarChart renders a series of labelled bars, auto-scaled against the
// largest value and aligned on the longest label.
func BarChart(w io.Writer, title string, labels []string, values []float64) {
	fmt.Fprintln(w, title)
	top := 0.0
	labelW := 0
	for _, v := range values {
		if v > top {
			top = v
		}
	}
	for _, l := range labels {
		labelW = max(labelW, len(l))
	}
	for i, v := range values {
		fmt.Fprintln(w, bar(labels[i], labelW, v, top, 40))
	}
}

// Bytes formats a byte count in human units.
func Bytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// MBps formats a bytes-per-second rate.
func MBps(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f MB/s", bytesPerSec/1e6)
}
