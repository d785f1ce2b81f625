package serve

import (
	"math/rand"
	"testing"
)

// TestWFQFairnessBound is the satellite property test: over random seeds,
// while a set of flows stays backlogged, each pair's normalised served
// work differs by at most one maximal request each —
//
//	|W_f/w_f - W_g/w_g| <= L_f/w_f + L_g/w_g
//
// — and the whole run is deterministic per seed. The slack term accounts
// for the fixed-point ceil in the finish tags (at most 1/wfqScale of a
// cost unit per dispatch).
func TestWFQFairnessBound(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flows := 2 + rng.Intn(3)
		perFlow := 20 + rng.Intn(40)
		weights := make([]int, flows)
		maxCost := make([]int64, flows)
		costs := make([][]int64, flows)
		for f := 0; f < flows; f++ {
			weights[f] = 1 + rng.Intn(8)
			costs[f] = make([]int64, perFlow)
			for i := range costs[f] {
				costs[f][i] = 1 + rng.Int63n(1000)
				if costs[f][i] > maxCost[f] {
					maxCost[f] = costs[f][i]
				}
			}
		}

		w := newWFQ()
		names := []string{"a", "b", "c", "d", "e"}
		// Everything arrives up front, so all flows are backlogged until
		// one of them drains.
		reqs := make(map[string]*tenantState, flows)
		for f := 0; f < flows; f++ {
			reqs[names[f]] = &tenantState{}
		}
		for i := 0; i < perFlow; i++ {
			for f := 0; f < flows; f++ {
				w.push(names[f], weights[f], costs[f][i], &request{ts: reqs[names[f]], seq: int64(i), cost: costs[f][i]})
			}
		}

		served := make(map[*tenantState]int64, flows)
		popped := make(map[*tenantState]int, flows)
		tsOf := make(map[*tenantState]int, flows)
		for f := 0; f < flows; f++ {
			tsOf[reqs[names[f]]] = f
		}
		for pops := 0; w.h.Len() > 0; pops++ {
			r := w.pop()
			served[r.ts] += r.cost
			popped[r.ts]++
			// Check the bound only while every flow is still backlogged.
			backlogged := true
			for f := 0; f < flows; f++ {
				if popped[reqs[names[f]]] >= perFlow {
					backlogged = false
				}
			}
			if !backlogged {
				break
			}
			slack := float64(pops+1) / wfqScale
			for f := 0; f < flows; f++ {
				for g := f + 1; g < flows; g++ {
					wf := served[reqs[names[f]]]
					wg := served[reqs[names[g]]]
					diff := float64(wf)/float64(weights[f]) - float64(wg)/float64(weights[g])
					if diff < 0 {
						diff = -diff
					}
					bound := float64(maxCost[f])/float64(weights[f]) + float64(maxCost[g])/float64(weights[g]) + slack
					if diff > bound {
						t.Fatalf("seed %d: after %d pops |W_%s/w - W_%s/w| = %.1f > bound %.1f (weights %v)",
							seed, pops+1, names[f], names[g], diff, bound, weights)
					}
				}
			}
		}
	}
}

// TestWFQFIFOWithinFlow: no request is reordered within one flow, even
// with interleaved arrivals and dispatches at random points.
func TestWFQFIFOWithinFlow(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		w := newWFQ()
		flows := []string{"x", "y", "z"}
		states := map[string]*tenantState{}
		flowOf := map[*tenantState]string{}
		for _, f := range flows {
			ts := &tenantState{}
			states[f] = ts
			flowOf[ts] = f
		}
		next := map[string]int64{}
		lastPopped := map[string]int64{"x": -1, "y": -1, "z": -1}
		queued := 0
		for step := 0; step < 500; step++ {
			if queued == 0 || rng.Intn(2) == 0 {
				f := flows[rng.Intn(len(flows))]
				w.push(f, 1+rng.Intn(4), 1+rng.Int63n(100), &request{ts: states[f], seq: next[f]})
				next[f]++
				queued++
			} else {
				r := w.pop()
				f := flowOf[r.ts]
				if r.seq <= lastPopped[f] {
					t.Fatalf("seed %d: flow %s dispatched seq %d after %d", seed, f, r.seq, lastPopped[f])
				}
				lastPopped[f] = r.seq
				queued--
			}
		}
	}
}

// TestWFQDeterministicPerSeed: two schedulers fed the identical sequence
// produce the identical dispatch order.
func TestWFQDeterministicPerSeed(t *testing.T) {
	run := func() []int64 {
		rng := rand.New(rand.NewSource(7))
		w := newWFQ()
		ts := &tenantState{}
		ts2 := &tenantState{}
		var order []int64
		var seq int64
		queued := 0
		for step := 0; step < 300; step++ {
			if queued == 0 || rng.Intn(3) > 0 {
				st, f := ts, int64(1)
				if rng.Intn(2) == 0 {
					st, f = ts2, 2
				}
				w.push(string(rune('a'+f)), int(f)+1, 1+rng.Int63n(50), &request{ts: st, seq: seq})
				seq++
				queued++
			} else {
				order = append(order, w.pop().seq)
				queued--
			}
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("dispatch counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dispatch %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}
