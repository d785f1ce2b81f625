package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"compstor/internal/obs"
)

// runRow runs one row of the table as compstor-bench does — a fresh root,
// a scope named after the artefact — and returns the structured result,
// the rendered report and the scope's snapshot.
func runRow(t *testing.T, e Experiment) (Report, []byte, obs.Snapshot) {
	t.Helper()
	o := tinyOptions()
	o.Obs = obs.New().Scope(e.Artefact())
	rep := e.Run(o)
	var out bytes.Buffer
	rep.Render(&out)
	return rep, out.Bytes(), o.Obs.Snapshot(e.Artefact())
}

// TestRegistry holds every row of the experiment table to the contract the
// driver and CI rely on: unique names, parts that point at a real
// composite, and a run that is a pure function of its options — the same
// structured result, report bytes and snapshot bytes twice over. A row
// that simulates anything must also leave at least one latency histogram
// in its artefact, or the BENCH file explains nothing.
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
			rep1, out1, snap1 := runRow(t, e)
			rep2, out2, snap2 := runRow(t, e)
			if !reflect.DeepEqual(rep1, rep2) {
				t.Errorf("results differ across identical runs:\n%+v\nvs\n%+v", rep1, rep2)
			}
			if len(out1) == 0 || !bytes.Equal(out1, out2) {
				t.Errorf("rendered reports empty or different across identical runs:\n%s\nvs\n%s", out1, out2)
			}
			var js1, js2 bytes.Buffer
			if err := snap1.WriteJSON(&js1); err != nil {
				t.Fatal(err)
			}
			if err := snap2.WriteJSON(&js2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js1.Bytes(), js2.Bytes()) {
				t.Error("snapshots differ across identical runs")
			}
			switch rep1.(type) {
			case Table1, Table2, Table4:
				// Rendered from model constants; nothing is simulated.
			default:
				if len(snap1.Histograms) == 0 {
					t.Error("simulated, but the snapshot has no histogram")
				}
			}
		})
	}
}
