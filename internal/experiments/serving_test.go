package experiments

import "testing"

// TestServingKneeAndShedding runs the full serving evaluation at tiny
// scale and checks its headline claims: the interactive tenant meets its
// SLO at low load, admission control sheds past the knee, request
// accounting conserves, and both chaos compositions complete.
func TestServingKneeAndShedding(t *testing.T) {
	r := Serving(tinyOptions())
	if r.CapacityRPS <= 0 || r.SLO <= 0 {
		t.Fatalf("degenerate calibration: capacity %.1f req/s, SLO %v", r.CapacityRPS, r.SLO)
	}
	if len(r.Points) != len(servingLoads)+2 {
		t.Fatalf("got %d points, want %d sweep + 2 chaos", len(r.Points), len(servingLoads))
	}
	var chaosSeen int
	for _, pt := range r.Points {
		for _, tn := range pt.Tenants {
			if tn.Arrived != tn.Admitted+tn.Shed {
				t.Errorf("%s/%s: arrived %d != admitted %d + shed %d", pt.Name, tn.Tenant, tn.Arrived, tn.Admitted, tn.Shed)
			}
			if tn.Admitted != tn.Finished+tn.Failed {
				t.Errorf("%s/%s: admitted %d != finished %d + failed %d", pt.Name, tn.Tenant, tn.Admitted, tn.Finished, tn.Failed)
			}
		}
		if pt.Chaos != "" {
			chaosSeen++
			if pt.Tenant("inter").Finished == 0 {
				t.Errorf("%s: no interactive request finished under chaos", pt.Name)
			}
		}
	}
	if chaosSeen != 2 {
		t.Fatalf("got %d chaos points, want 2", chaosSeen)
	}
	// At a quarter of calibrated capacity the interactive tenant must meet
	// its (generous, 5x saturation-p99) SLO — so the knee is at least there.
	if low := r.Points[0]; low.Tenant("inter").Attainment < 0.99 {
		t.Errorf("interactive attainment %.3f < 0.99 at load %.2f", low.Tenant("inter").Attainment, low.Load)
	}
	if r.KneeLoad < servingLoads[0] {
		t.Errorf("knee %.2f below the lowest swept load", r.KneeLoad)
	}
	// Past capacity the bounded queues must shed rather than grow without
	// limit.
	over := r.Points[len(servingLoads)-1]
	if over.Load <= 1 {
		t.Fatalf("sweep tops out at %.2f, want an overload point", over.Load)
	}
	if over.TotalShed == 0 {
		t.Errorf("no shedding at %.2fx capacity", over.Load)
	}
}
