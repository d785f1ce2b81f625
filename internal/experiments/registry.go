package experiments

import (
	"fmt"
	"io"
)

// Report is what an experiment returns: its structured result, which
// renders itself as the paper-style tables and charts.
type Report interface {
	Render(w io.Writer)
}

// Experiment is one regenerator of the paper's evaluation: the name
// compstor-bench selects it by and the function that runs it. Run receives
// Options whose Obs is already scoped to the experiment.
type Experiment struct {
	Name string
	// PartOf, when set, marks a sub-selection of the composite experiment of
	// that name: it runs under the composite's obs scope and artefact name,
	// and a run of everything skips it because the composite covers it.
	PartOf string
	Run    func(o Options) Report
}

// Artefact names the experiment's obs scope and BENCH_<artefact>.json.
func (e Experiment) Artefact() string {
	if e.PartOf != "" {
		return e.PartOf
	}
	return e.Name
}

// Experiments returns the whole evaluation in report order. Adding an
// experiment is one row here plus its function.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "tables", Run: func(o Options) Report { return reports{table1{}, table2{}, table3(o), table4{}} }},
		{Name: "table1", PartOf: "tables", Run: func(Options) Report { return table1{} }},
		{Name: "table2", PartOf: "tables", Run: func(Options) Report { return table2{} }},
		{Name: "table3", PartOf: "tables", Run: func(o Options) Report { return table3(o) }},
		{Name: "table4", PartOf: "tables", Run: func(Options) Report { return table4{} }},
		{Name: "fig1", Run: func(o Options) Report { return Fig1(o) }},
		{Name: "fig6", Run: func(o Options) Report { return fig6Report(Fig6(o, nil)) }},
		{Name: "fig7", Run: func(o Options) Report { return fig7Report(Fig7(o)) }},
		{Name: "fig8", Run: func(o Options) Report { return fig8Report(Fig8(o)) }},
		{Name: "degraded", Run: func(o Options) Report { return degradedReport(Degraded(o)) }},
		{Name: "recovery", Run: func(o Options) Report {
			return recoveryReport{Intervals: RecoveryIntervals(o), Scaling: RecoveryScanScaling(o)}
		}},
		{Name: "pipeline", Run: func(o Options) Report { return pipelineReport(Pipeline(o)) }},
		{Name: "scaleup", Run: func(o Options) Report { return scaleupReport(Scaleup(o)) }},
		{Name: "serving", Run: func(o Options) Report { return servingReport(Serving(o)) }},
		{Name: "tail", Run: func(o Options) Report { return tailReport(Tail(o)) }},
		{Name: "ablations", Run: func(o Options) Report {
			return reports{AblationInterference(o), AblationStriping(o), AblationDirectPath(o)}
		}},
	}
}

// reports renders several results as one, a blank line between them.
type reports []Report

func (rs reports) Render(w io.Writer) {
	for i, r := range rs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		r.Render(w)
	}
}

// The types below give every result whose renderer is a free function the
// Report shape, so the table can hold them next to the results that already
// render themselves.

type (
	table1 struct{}
	table2 struct{}
	table4 struct{}

	fig6Report     []Fig6Series
	fig7Report     []Fig7Point
	fig8Report     []Fig8Row
	degradedReport []DegradedPoint
	pipelineReport []PipelinePoint
	scaleupReport  []ScaleupPoint
	servingReport  ServingResult
	tailReport     TailResult
	recoveryReport struct{ Intervals, Scaling []RecoveryPoint }
)

func (table1) Render(w io.Writer)           { Table1(w) }
func (table2) Render(w io.Writer)           { Table2(w) }
func (table4) Render(w io.Writer)           { Table4(w) }
func (r fig6Report) Render(w io.Writer)     { RenderFig6(w, r) }
func (r fig7Report) Render(w io.Writer)     { RenderFig7(w, r) }
func (r fig8Report) Render(w io.Writer)     { RenderFig8(w, r) }
func (r degradedReport) Render(w io.Writer) { RenderDegraded(w, r) }
func (r pipelineReport) Render(w io.Writer) { RenderPipeline(w, r) }
func (r scaleupReport) Render(w io.Writer)  { RenderScaleup(w, r) }
func (r servingReport) Render(w io.Writer)  { RenderServing(w, ServingResult(r)) }
func (r tailReport) Render(w io.Writer)     { RenderTail(w, TailResult(r)) }
func (r recoveryReport) Render(w io.Writer) { RenderRecovery(w, r.Intervals, r.Scaling) }
