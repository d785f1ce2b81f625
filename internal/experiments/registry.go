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
		{Name: "tables", Run: func(o Options) Report { return reports{Table1{}, Table2{}, Table3(o), Table4{}} }},
		{Name: "table1", PartOf: "tables", Run: func(Options) Report { return Table1{} }},
		{Name: "table2", PartOf: "tables", Run: func(Options) Report { return Table2{} }},
		{Name: "table3", PartOf: "tables", Run: func(o Options) Report { return Table3(o) }},
		{Name: "table4", PartOf: "tables", Run: func(Options) Report { return Table4{} }},
		{Name: "fig1", Run: func(o Options) Report { return Fig1(o) }},
		{Name: "fig6", Run: func(o Options) Report { return Fig6(o, nil) }},
		{Name: "fig7", Run: func(o Options) Report { return Fig7(o) }},
		{Name: "fig8", Run: func(o Options) Report { return Fig8(o) }},
		{Name: "degraded", Run: func(o Options) Report { return Degraded(o) }},
		{Name: "recovery", Run: func(o Options) Report { return Recovery(o) }},
		{Name: "scaleup", Run: func(o Options) Report { return Scaleup(o) }},
		{Name: "serving", Run: func(o Options) Report { return Serving(o) }},
		{Name: "tail", Run: func(o Options) Report { return Tail(o) }},
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
