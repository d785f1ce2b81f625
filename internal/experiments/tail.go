package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"compstor/internal/chaos"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/serve"
	"compstor/internal/sim"
	"compstor/internal/trace"
)

// The tail experiment is the headline for the tail-tolerance work: an
// open-loop grep tenant on a 4-device cluster where device 0 fails *slow*
// mid-run (it keeps answering, just much later than its peers — the gray
// failure a binary dead/alive model never catches). The same arrival
// sequence runs twice:
//
//   - baseline: the plain retry pool — no hedging, no health scoring, no
//     deadlines (the pre-tail-tolerance semantics)
//   - tolerant: hedged requests + gray-failure health scoring + retry
//     budget + seeded backoff jitter + a generous per-request deadline
//
// and the report compares p99/p99.9. A second, closed-loop scenario drives
// a retry storm (both devices dropping over half their responses) with and
// without the retry budget, showing the budget bounding retry amplification
// into typed fast-fails.
const (
	tailDevices        = 4
	tailTargetArrivals = 400  // open-loop arrivals per measured run
	tailCalibrationReq = 160  // closed-loop requests for the capacity probe
	tailLoad           = 0.55 // offered load, fraction of calibrated capacity
	tailSLOFactor      = 5    // SLO = factor x calibration p99 (scoring only)
	tailDeadlineFactor = 25   // deadline = factor x calibration p99 (backstop)

	// tailFailSlowFactor multiplies device 0's per-command controller
	// overhead inside the fail-slow window. The overhead is small (~8µs), so
	// the factor is large: the point is a device answering several
	// milliseconds late — far past its peers' whole-request latency — while
	// remaining perfectly "alive".
	tailFailSlowFactor = 600

	// Retry-storm scenario: a closed loop against 2 devices that both drop
	// over half their responses. DeadAfter is disabled (the devices are not
	// dying, they are misbehaving), so without a budget every request
	// retries to its per-task limit and the fleet amplifies the fault.
	tailStormDevices  = 2
	tailStormRequests = 160
	tailStormDropProb = 0.55
	tailStormAttempts = 6
)

// TailPoint is one serving run's outcome (baseline or tolerant).
type TailPoint struct {
	Name     string
	Arrived  int64
	Admitted int64
	Shed     int64
	Finished int64
	Failed   int64
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
	P999     time.Duration
	// Hedge and health activity (always zero in the baseline).
	HedgeIssued int64
	HedgeWon    int64
	HedgeWasted int64
	Quarantines int64
	Readmits    int64
	Probes      int64
}

// TailStormPoint is one retry-storm run's outcome.
type TailStormPoint struct {
	Mode         string // "unbudgeted" or "budgeted"
	Requests     int
	Attempts     int
	Retries      int // attempts beyond the first per request
	Successes    int
	Failures     int
	BudgetDenied int // requests fast-failed by a dry budget
	BudgetCap    float64
}

// TailResult is the whole tail-tolerance evaluation.
type TailResult struct {
	Devices     int
	FileBytes   int
	CapacityRPS float64
	CalibP99    time.Duration
	Deadline    time.Duration
	Baseline    TailPoint
	Tolerant    TailPoint
	// P99Improvement is baseline p99 over tolerant p99 — the headline
	// "hedging + deadlines + health scoring vs one gray device" number.
	P99Improvement float64
	Storm          []TailStormPoint
}

func tailGrepCmd() core.Command { return servingGrepCmd() }

// tailRun measures one open-loop run against the fail-slow plan. tolerant
// selects the full tail-tolerance stack; the baseline pool keeps the plain
// retry semantics. Arrivals are identical in both modes (the serve layer's
// RNG streams depend only on the seed), so the comparison isolates the
// dispatch policy.
func (o Options) tailRun(name string, tolerant bool, lambda float64,
	horizon, slo, deadline time.Duration, data []byte, plan *chaos.Plan) TailPoint {
	o.logf("tail: %s (%.0f req/s offered, horizon %v)...", name, lambda, horizon)
	spec := serve.TenantSpec{
		Name: "tail", Class: serve.Interactive, Weight: 1,
		Arrival:   serve.Arrival{Kind: serve.Poisson, Rate: lambda},
		Workloads: []serve.Workload{{Weight: 1, Cost: int64(len(data)), Make: func(int64) core.Command { return tailGrepCmd() }}},
		SLO:       slo,
	}
	var arm func(*cluster.Pool)
	if tolerant {
		spec.Deadline = deadline
		arm = func(pool *cluster.Pool) {
			pool.Hedge = cluster.DefaultHedgePolicy()
			pool.Health = cluster.DefaultHealthPolicy()
			// Scale the quarantine dwell to the run so probation (and, once
			// the fail-slow window closes, readmission) happens inside the
			// horizon.
			pool.Health.Cooldown = horizon / 8
			pool.Budget = cluster.DefaultRetryBudget()
			pool.Retry.Jitter = true
			pool.SetSeed(o.Seed)
		}
	}
	srv, pool := o.openLoop(name, tailDevices, serve.Config{
		Horizon: horizon,
		Tenants: []serve.TenantSpec{spec},
		Limits:  serve.Limits{MaxQueuedPerTenant: 64, MaxOutstanding: 256},
	}, data, arm, plan, 0)

	st := srv.Stats("tail")
	hs := pool.HedgeStats()
	hc := pool.HealthStats()
	return TailPoint{
		Name:     name,
		Arrived:  st.Arrived,
		Admitted: st.Admitted,
		Shed:     st.Shed,
		Finished: st.Finished,
		Failed:   st.Failed,
		P50:      time.Duration(st.Latency.Quantile(0.50)),
		P95:      time.Duration(st.Latency.Quantile(0.95)),
		P99:      time.Duration(st.Latency.Quantile(0.99)),
		P999:     time.Duration(st.Latency.Quantile(0.999)),

		HedgeIssued: hs.Issued,
		HedgeWon:    hs.Won,
		HedgeWasted: hs.Wasted,
		Quarantines: hc.Quarantines,
		Readmits:    hc.Readmits,
		Probes:      hc.Probes,
	}
}

// tailStorm drives the closed-loop retry storm: every device drops over
// half its responses, every request retries hard, and the run counts total
// attempts with the retry budget on or off.
func (o Options) tailStorm(name string, budgeted bool, data []byte) TailStormPoint {
	o.logf("tail: storm %s...", name)
	sys, pool := o.newCluster(o.Obs.Scope(name), core.SystemConfig{CompStors: tailStormDevices})
	pool.Retry.MaxAttempts = tailStormAttempts
	pool.Retry.DeadAfter = 0 // misbehaving, not dying: strikes never kill
	pool.Retry.Jitter = true
	pool.SetSeed(o.Seed)
	if budgeted {
		pool.Budget = cluster.DefaultRetryBudget()
	}
	plan := chaos.NewPlan(o.Seed + 4).WithDefault(chaos.DeviceFaults{DropProb: tailStormDropProb})
	chaos.Install(sys, plan)

	pt := TailStormPoint{
		Mode:      name,
		Requests:  tailStormRequests,
		BudgetCap: pool.RetryBudgetLeft(),
	}
	sys.Go("driver", func(p *sim.Proc) {
		if err := pool.StageReplicated(p, []cluster.File{{Name: "serve.txt", Data: data}}); err != nil {
			panic(fmt.Sprintf("tail storm stage: %v", err))
		}
		closedLoop(p, pool, "storm", tailStormRequests, &cluster.RoundRobin{},
			func(int) core.Command { return tailGrepCmd() },
			func(_ int, r cluster.TaskResult, _ sim.Duration) {
				pt.Attempts += r.Attempts
				switch {
				case r.Err == nil:
					pt.Successes++
				case errors.Is(r.Err, cluster.ErrRetryBudgetExhausted):
					pt.Failures++
					pt.BudgetDenied++
				default:
					pt.Failures++
				}
			})
	})
	sys.Run()
	sys.Close()
	pt.Retries = pt.Attempts - pt.Requests
	return pt
}

// Tail runs the tail-tolerance evaluation: calibrate closed-loop capacity,
// run the fail-slow scenario baseline vs tolerant, then the retry-storm
// scenario unbudgeted vs budgeted.
func Tail(o Options) TailResult {
	data := o.servingData()
	o.logf("tail: calibrating capacity on %d devices...", tailDevices)
	capacity, calP99 := o.calibrate(tailDevices, data, tailCalibrationReq, func(int) core.Command { return tailGrepCmd() })
	lambda := tailLoad * capacity
	horizon := time.Duration(float64(tailTargetArrivals) / lambda * 1e9)
	slo := tailSLOFactor * calP99
	deadline := tailDeadlineFactor * calP99

	// Device 0 fails slow for the middle half of the run: enough healthy
	// runway before the window for the hedge quantile and health scores to
	// warm on honest numbers, and after it to observe the readmission.
	plan := chaos.NewPlan(o.Seed+3).WithDevice(0, chaos.DeviceFaults{
		FailSlowAt:     horizon / 4,
		FailSlowFor:    horizon / 2,
		FailSlowFactor: tailFailSlowFactor,
	})

	res := TailResult{
		Devices:     tailDevices,
		FileBytes:   len(data),
		CapacityRPS: capacity,
		CalibP99:    calP99,
		Deadline:    deadline,
	}
	res.Baseline = o.tailRun("baseline", false, lambda, horizon, slo, deadline, data, plan)
	res.Tolerant = o.tailRun("tolerant", true, lambda, horizon, slo, deadline, data, plan)
	if res.Tolerant.P99 > 0 {
		res.P99Improvement = float64(res.Baseline.P99) / float64(res.Tolerant.P99)
	}
	res.Storm = []TailStormPoint{
		o.tailStorm("unbudgeted", false, data),
		o.tailStorm("budgeted", true, data),
	}
	return res
}

// Render writes the tail-tolerance report.
func (r TailResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Tail tolerance: %d devices, %d-byte file, capacity %.0f req/s (closed-loop), calibration p99 %v\n",
		r.Devices, r.FileBytes, r.CapacityRPS, r.CalibP99)
	fmt.Fprintf(w, "Scenario: device 0 fail-slow (%dx controller overhead) for the middle half of the run; offered load %.0f%% of capacity\n\n",
		tailFailSlowFactor, tailLoad*100)

	t := trace.NewTable("Fail-slow device: baseline vs tail-tolerant serving",
		"mode", "arrived", "shed", "failed", "p50", "p95", "p99", "p99.9", "hedges", "won", "quarantines")
	for _, pt := range []TailPoint{r.Baseline, r.Tolerant} {
		t.AddRow(pt.Name, pt.Arrived, pt.Shed, pt.Failed,
			pt.P50.Round(time.Microsecond).String(),
			pt.P95.Round(time.Microsecond).String(),
			pt.P99.Round(time.Microsecond).String(),
			pt.P999.Round(time.Microsecond).String(),
			pt.HedgeIssued, pt.HedgeWon, pt.Quarantines)
	}
	t.Render(w)
	fmt.Fprintf(w, "p99 improvement (baseline/tolerant): %.1fx — hedged requests + deadline + gray-failure quarantine vs one fail-slow device\n\n",
		r.P99Improvement)

	st := trace.NewTable(fmt.Sprintf("Retry storm: both devices dropping responses (p=%.2f) — budget bounds amplification", tailStormDropProb),
		"mode", "requests", "attempts", "retries", "successes", "failures", "budget-denied")
	for _, pt := range r.Storm {
		st.AddRow(pt.Mode, pt.Requests, pt.Attempts, pt.Retries, pt.Successes, pt.Failures, pt.BudgetDenied)
	}
	st.Render(w)
	fmt.Fprintln(w, "the retry budget turns the storm's amplification into typed fast-fails (ErrRetryBudgetExhausted)")
}
