package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"compstor/internal/obs"
	"compstor/internal/sim"
)

// The differential determinism suite: every experiment must produce
// byte-identical results and observability snapshots whether the engine's
// switch-free fast paths are on (the default) or forced off (the classic
// queue+handoff dispatch of the pre-fast-path engine). The workloads are
// the public experiments that between them cover the scatter/gather,
// chaos, open-loop serving, tail-tolerance and split-scan paths.

// diffSnapshot runs fn under the given fast-path mode on a fresh Obs and
// returns (result JSON, snapshot JSON).
func diffSnapshot(t *testing.T, fast bool, fn func(o Options) any) ([]byte, []byte) {
	t.Helper()
	sim.SetDefaultFastPaths(fast)
	defer sim.SetDefaultFastPaths(true)
	o := tinyOptions()
	o.Obs = obs.New()
	result := fn(o)
	rj, err := json.MarshalIndent(result, "", " ")
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	var sj bytes.Buffer
	if err := o.Obs.Snapshot("differential").WriteJSON(&sj); err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return rj, sj.Bytes()
}

func assertFastSlowIdentical(t *testing.T, name string, fn func(o Options) any) {
	t.Helper()
	fastRes, fastSnap := diffSnapshot(t, true, fn)
	slowRes, slowSnap := diffSnapshot(t, false, fn)
	if !bytes.Equal(fastRes, slowRes) {
		t.Errorf("%s: results differ between fast and slow paths\nfast: %s\nslow: %s", name, fastRes, slowRes)
	}
	if !bytes.Equal(fastSnap, slowSnap) {
		t.Errorf("%s: snapshots differ between fast and slow paths\nfast: %s\nslow: %s", name, fastSnap, slowSnap)
	}
}

func TestDifferentialFig7(t *testing.T) {
	assertFastSlowIdentical(t, "fig7", func(o Options) any {
		o.Books = 6
		o.DeviceCounts = []int{1, 2}
		return Fig7(o)
	})
}

func TestDifferentialDegraded(t *testing.T) {
	assertFastSlowIdentical(t, "degraded", func(o Options) any {
		o.Books = 6
		o.DeviceCounts = []int{2}
		return Degraded(o)
	})
}

func TestDifferentialServing(t *testing.T) {
	assertFastSlowIdentical(t, "serving", func(o Options) any { return Serving(o) })
}

func TestDifferentialTail(t *testing.T) {
	assertFastSlowIdentical(t, "tail", func(o Options) any { return Tail(o) })
}

// TestDifferentialParscan covers the read pipeline and the intra-device
// split scan, which only the scaleup experiment turns on.
func TestDifferentialParscan(t *testing.T) {
	assertFastSlowIdentical(t, "scaleup", func(o Options) any { return Scaleup(o) })
}
