package experiments

import "testing"

// tailTiny runs the tail evaluation once at test scale.
func tailTiny() TailResult {
	o := tinyOptions()
	return Tail(o)
}

// TestTailHeadline is the PR's acceptance bar: against one fail-slow device
// out of four, the hedged+deadlined+health-scored configuration improves
// p99 by at least 2x over the baseline pool.
func TestTailHeadline(t *testing.T) {
	r := tailTiny()
	if r.P99Improvement < 2 {
		t.Fatalf("p99 improvement %.2fx (baseline %v vs tolerant %v), want >= 2x",
			r.P99Improvement, r.Baseline.P99, r.Tolerant.P99)
	}
	// The win must come from the mechanisms under test actually firing.
	if r.Tolerant.HedgeIssued == 0 {
		t.Fatal("tolerant run issued no hedges")
	}
	if r.Tolerant.Quarantines == 0 {
		t.Fatal("health scoring never quarantined the fail-slow device")
	}
	// And the baseline must not accidentally have them on.
	if r.Baseline.HedgeIssued != 0 || r.Baseline.Quarantines != 0 {
		t.Fatalf("baseline ran with tail tolerance enabled: %+v", r.Baseline)
	}
	for _, p := range []TailPoint{r.Baseline, r.Tolerant} {
		if p.Arrived != p.Admitted+p.Shed {
			t.Errorf("%s: arrived %d != admitted %d + shed %d", p.Name, p.Arrived, p.Admitted, p.Shed)
		}
		if p.Admitted != p.Finished+p.Failed {
			t.Errorf("%s: admitted %d != finished %d + failed %d", p.Name, p.Admitted, p.Finished, p.Failed)
		}
		if p.Finished == 0 {
			t.Errorf("%s: nothing finished", p.Name)
		}
	}
}

// TestTailRetryStormBounded: the budgeted storm's total retries stay inside
// the token-bucket bound (initial tokens + refills earned + one in-flight
// grant), while the unbudgeted storm amplifies at least 2x past it.
func TestTailRetryStormBounded(t *testing.T) {
	r := tailTiny()
	if len(r.Storm) != 2 {
		t.Fatalf("%d storm points, want 2", len(r.Storm))
	}
	var budgeted, unbudgeted *TailStormPoint
	for i := range r.Storm {
		switch r.Storm[i].Mode {
		case "budgeted":
			budgeted = &r.Storm[i]
		case "unbudgeted":
			unbudgeted = &r.Storm[i]
		}
	}
	if budgeted == nil || unbudgeted == nil {
		t.Fatalf("storm modes missing: %+v", r.Storm)
	}
	for _, p := range []*TailStormPoint{budgeted, unbudgeted} {
		if p.Retries != p.Attempts-p.Requests {
			t.Errorf("%s: retries %d != attempts %d - requests %d", p.Mode, p.Retries, p.Attempts, p.Requests)
		}
		if p.Successes+p.Failures != p.Requests {
			t.Errorf("%s: successes %d + failures %d != requests %d", p.Mode, p.Successes, p.Failures, p.Requests)
		}
	}
	bound := budgeted.BudgetCap + 0.1*float64(budgeted.Successes) + 1
	if float64(budgeted.Retries) > bound {
		t.Fatalf("budgeted retries %d exceed the budget bound %.1f", budgeted.Retries, bound)
	}
	if budgeted.BudgetDenied == 0 {
		t.Fatal("budgeted storm never hit a dry bucket")
	}
	if unbudgeted.BudgetDenied != 0 {
		t.Fatalf("unbudgeted storm reported %d budget denials", unbudgeted.BudgetDenied)
	}
	if unbudgeted.Retries < 2*budgeted.Retries {
		t.Fatalf("unbudgeted storm did not amplify: %d retries vs %d budgeted",
			unbudgeted.Retries, budgeted.Retries)
	}
}
