package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"compstor/internal/sim"
)

func TestWallProfile(t *testing.T) {
	e := sim.NewEngine()
	o := New()
	o.EnableTrace()
	if o.shared.tracer.wall {
		t.Fatal("wall profile on before enable")
	}
	o.EnableWallProfile()
	if !o.shared.tracer.wall {
		t.Fatal("wall profile off after enable")
	}
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			sp := o.Begin(p, "w", "work")
			p.Wait(time.Millisecond)
			sp.End()
		}
		sp := o.Begin(p, "w", "idle")
		p.Wait(2 * time.Millisecond)
		sp.End()
	})
	e.Run()

	prof := o.WallProfile(0)
	if len(prof) != 2 {
		t.Fatalf("profile has %d entries, want 2: %+v", len(prof), prof)
	}
	byName := map[string]WallProfileEntry{}
	for _, p := range prof {
		byName[p.Name] = p
		if p.WallNS < 0 {
			t.Fatalf("%s: negative wall %d", p.Name, p.WallNS)
		}
	}
	if w := byName["work"]; w.Count != 3 || w.SimNS != int64(3*time.Millisecond) {
		t.Fatalf("work entry = %+v, want count 3, sim 3ms", w)
	}
	if w := byName["idle"]; w.Count != 1 || w.SimNS != int64(2*time.Millisecond) {
		t.Fatalf("idle entry = %+v, want count 1, sim 2ms", w)
	}
	if top := o.WallProfile(1); len(top) != 1 {
		t.Fatalf("WallProfile(1) returned %d entries", len(top))
	}
	var buf bytes.Buffer
	RenderWallProfile(&buf, "t", prof)
	if !strings.Contains(buf.String(), "work") || !strings.Contains(buf.String(), "gross wall") {
		t.Fatalf("render missing expected columns:\n%s", buf.String())
	}
}
