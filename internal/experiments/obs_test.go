package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"compstor/internal/apps/appset"
	"compstor/internal/core"
	"compstor/internal/obs"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

func obsTestOptions() Options {
	o := DefaultOptions()
	o.Books = 8
	o.MeanBookBytes = 4 << 10
	o.DeviceCounts = []int{2}
	return o
}

// TestBenchSnapshotSchema runs a small instrumented experiment and
// strict-decodes its snapshot JSON: any field the exporter writes that the
// schema struct does not declare (or vice versa) fails the round trip. Every
// BENCH_*.json artefact has this shape.
func TestBenchSnapshotSchema(t *testing.T) {
	o := obsTestOptions()
	root := obs.New()
	o.Obs = root.Scope("fig6")
	w, err := WorkloadByName("grep")
	if err != nil {
		t.Fatal(err)
	}
	RunPool(o, 2, w)

	var buf bytes.Buffer
	if err := root.Snapshot("fig6").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	var snap obs.Snapshot
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip strictly: %v", err)
	}
	if snap.Schema != obs.SchemaVersion {
		t.Fatalf("schema %q, want %q", snap.Schema, obs.SchemaVersion)
	}

	// The snapshot must carry per-layer latency histograms and channel/core
	// utilization timelines for the drives the experiment built.
	wantHist := []string{".ftl.read", ".ftl.write", ".nvme.qd_wait", ".isps.task_exec"}
	for _, suffix := range wantHist {
		found := false
		for _, h := range snap.Histograms {
			if strings.HasSuffix(h.Name, suffix) && h.Count > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no populated histogram ending in %q", suffix)
		}
	}
	wantTL := []string{".flash.ch0.busy", ".isps.cores.busy", "pcie.uplink.busy"}
	for _, suffix := range wantTL {
		found := false
		for _, tl := range snap.Timelines {
			if strings.HasSuffix(tl.Name, suffix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no timeline ending in %q", suffix)
		}
	}
	var attempts int64 = -1
	for _, c := range snap.Counters {
		if strings.HasSuffix(c.Name, "cluster.task_attempts") {
			attempts = c.Value
		}
	}
	if attempts <= 0 {
		t.Errorf("cluster.task_attempts = %d, want > 0", attempts)
	}
}

// TestMidRunSnapshotIsRaceFree snapshots metrics and layer Stats() in the
// middle of a running simulation, scheduled as an engine event per the
// single-goroutine invariant documented in package obs. Run under -race
// (CI's race job does) this proves a mid-run snapshot needs no locks.
func TestMidRunSnapshotIsRaceFree(t *testing.T) {
	root := obs.New()
	root.EnableTrace()
	sys := core.NewSystem(core.SystemConfig{
		CompStors: 2,
		Registry:  appset.Base(),
		Obs:       root,
	})
	payload := bytes.Repeat([]byte("mid-run snapshot corpus\n"), 2000)

	var mid obs.Snapshot
	snapped := false
	sys.Eng.At(sim.Time(500*time.Microsecond), func() {
		mid = root.Snapshot("mid")
		for _, u := range sys.Devices {
			_ = u.Drive.Flash().Stats()
			_ = u.Drive.FTL().Stats()
		}
		snapped = true
	})
	sys.Go("driver", func(p *sim.Proc) {
		for _, u := range sys.Devices {
			if err := u.Client.FS().WriteFile(p, "blob.txt", payload); err != nil {
				t.Errorf("stage: %v", err)
				return
			}
			if err := u.Client.FS().Flush(p); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			if _, err := u.Client.Run(p, core.Command{Exec: "grep", Args: []string{"-c", "corpus", "blob.txt"}}); err != nil {
				t.Errorf("minion: %v", err)
				return
			}
		}
	})
	end := sys.Run()
	if !snapped {
		t.Fatalf("mid-run snapshot event never fired (run ended at %v)", end)
	}
	if len(mid.Counters) == 0 {
		t.Fatal("mid-run snapshot is empty")
	}
	final := root.Snapshot("final")
	if len(final.Histograms) < len(mid.Histograms) {
		t.Fatalf("final snapshot smaller than mid-run: %d < %d", len(final.Histograms), len(mid.Histograms))
	}
}

// TestTraceAndMetricsDeterminism runs the same seeded degraded experiment
// and a stock (pipelined, split) scan twice and requires byte-identical,
// valid JSON trace and metrics exports — the property that makes a trace
// attachable to a bug report — with the chaos instants and the split
// scan's chunk spans in the trace.
func TestTraceAndMetricsDeterminism(t *testing.T) {
	run := func() (traceJSON, metricsJSON []byte) {
		o := obsTestOptions()
		root := obs.New()
		root.EnableTrace()
		o.Obs = root.Scope("degraded")
		w, err := WorkloadByName("grep")
		if err != nil {
			t.Fatal(err)
		}
		o.degradedPoint(2, w)
		o.scanRun("scan", core.SystemConfig{}, core.Command{Exec: "grep", Args: []string{"-c", "the", "scan.txt"}},
			textgen.Book(o.Seed, 1<<20))
		var tb, mb bytes.Buffer
		if err := root.WriteTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if err := root.Snapshot("degraded").WriteJSON(&mb); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), mb.Bytes()
	}
	t1, m1 := run()
	t2, m2 := run()
	if !bytes.Equal(t1, t2) {
		t.Error("trace exports differ between identical seeded runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics exports differ between identical seeded runs")
	}
	if !json.Valid(t1) || !json.Valid(m1) {
		t.Error("trace or metrics export is not valid JSON")
	}
	if !bytes.Contains(t1, []byte(`"ph":"i"`)) {
		t.Error("degraded trace has no instant events (chaos faults missing)")
	}
	if !bytes.Contains(t1, []byte("isps/parscan")) {
		t.Error("trace has no split-scan chunk spans")
	}
}
