package experiments

import (
	"fmt"
	"io"

	"compstor/internal/cpu"
	"compstor/internal/trace"
)

// Fig8Row is one application's energy-per-gigabyte comparison.
type Fig8Row struct {
	App            string
	CompStorJPerGB float64
	XeonJPerGB     float64
	Ratio          float64 // Xeon / CompStor (the paper's "up to 3X saving")
	PaperCompStor  float64
	PaperXeon      float64
}

// Fig8Result is the energy comparison, one row per application.
type Fig8Result []Fig8Row

// Fig8 reproduces the energy-consumption experiment: every application runs
// over the corpus (a) in-situ on one CompStor and (b) on the Xeon host with
// a conventional SSD; energy is integrated over the compute window and
// normalised per gigabyte of input, exactly as the paper reports.
func Fig8(o Options) Fig8Result {
	var out Fig8Result
	for _, w := range Workloads() {
		o.logf("fig8: %s in-situ...", w.Name)
		dev := RunPool(o, 1, w)

		o.logf("fig8: %s on host...", w.Name)
		host := RunHost(o, w)
		if dev.Err != nil {
			panic(fmt.Sprintf("fig8: %s: %d in-situ tasks failed, first: %v", w.Name, dev.Failures, dev.Err))
		}

		row := Fig8Row{
			App:            w.Name,
			CompStorJPerGB: dev.JPerGB(),
			XeonJPerGB:     host.JPerGB(),
		}
		if row.CompStorJPerGB > 0 {
			row.Ratio = row.XeonJPerGB / row.CompStorJPerGB
		}
		if pc, px, ok := cpu.PaperFig8(cpu.Class(w.Name)); ok {
			row.PaperCompStor = pc
			row.PaperXeon = px
		}
		out = append(out, row)
	}
	return out
}

// Render writes the energy report with paper-vs-measured columns.
func (rows Fig8Result) Render(w io.Writer) {
	t := trace.NewTable("Fig 8 — energy per gigabyte of input (J/GB)",
		"app", "CompStor", "paper", "Xeon", "paper", "ratio", "paper-ratio")
	for _, r := range rows {
		pr := 0.0
		if r.PaperCompStor > 0 {
			pr = r.PaperXeon / r.PaperCompStor
		}
		t.AddRow(r.App, r.CompStorJPerGB, r.PaperCompStor, r.XeonJPerGB, r.PaperXeon,
			fmt.Sprintf("%.2fx", r.Ratio), fmt.Sprintf("%.2fx", pr))
	}
	t.Render(w)
	fmt.Fprintln(w)
	labels := make([]string, 0, len(rows)*2)
	values := make([]float64, 0, len(rows)*2)
	for _, r := range rows {
		labels = append(labels, r.App+" (CompStor)", r.App+" (Xeon)")
		values = append(values, r.CompStorJPerGB, r.XeonJPerGB)
	}
	trace.BarChart(w, "J/GB (lower is better)", labels, values)
}
