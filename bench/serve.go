package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"

	"compstor/internal/chaos"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/energy"
	"compstor/internal/serve"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

// serve_mix constants. Every rate and limit is a literal: nothing is
// derived from a calibration at run time, so a faster device cannot move
// its own goalposts. README.md records how the numbers were obtained.
const (
	serveDevices   = 4
	serveFileBytes = 28 << 10
	serveArrivals  = 3000 // per load point; 40% interactive = about 1200 samples
	serveWarmup    = 400  // closed-loop requests before each load point

	// serveSLO is the interactive tenant's frozen latency limit, applied to
	// its p99; serveDeadline is the per-request bound the gray point adds.
	serveSLO      = 25 * time.Millisecond
	serveDeadline = 125 * time.Millisecond
	// serveDrainSlack is how long after the arrival horizon an admitted
	// request may still finish before the point counts as leaving a backlog.
	serveDrainSlack = 50 * time.Millisecond

	// serveTraceSeed fixes the arrival trace, the gray point's fault stream
	// and the pool's backoff jitter. --seed changes the bytes served, not
	// when requests arrive: burst placement alone moves the p99 of 1200
	// requests by tens of percent between arrival seeds, which no bound
	// could gate. The trace is frozen for the same reason the rates are.
	serveTraceSeed = 2018

	// serveFailSlow multiplies device 0's per-command controller overhead
	// during the gray point's fail-slow window (the factor of `-run tail`).
	serveFailSlow = 600
)

// servePoint is one open-loop load point: a frozen absolute offered rate,
// and whether device 0 fails slow for the middle half of the horizon while
// the pool runs the full tail-tolerance stack.
type servePoint struct {
	name string
	rps  float64
	gray bool
	// detail marks a point only the traced run measures: twelve thousand
	// requests per repetition do not fit the run-time budget several times
	// over, and the end-to-end metrics need the r80 point only.
	detail bool
}

// The three plain rates are 50%, 80% and 110% of the 2216 req/s closed-loop
// capacity this mix measured when the benchmark was defined.
var servePoints = []servePoint{
	{name: "r50", rps: 1100, detail: true},
	{name: "r80", rps: 1750},
	{name: "r110", rps: 2400, detail: true},
	{name: "gray", rps: 1750, gray: true},
}

// serveCopies is how many names the served file is staged under for the
// compress tenant. gzip writes <name>.gz, and two gzips of one name racing
// on one device can fail with "file already exists" (README.md, known
// limits); request seq compresses copy seq mod serveCopies, and fewer than
// that many requests are ever queued or running at once.
const serveCopies = 64

// serveCmd builds a tenant's seq-th request: interactive grep and
// background gawk read serve.txt, background gzip compresses its copy.
func serveCmd(tenant string, seq int64) core.Command {
	switch tenant {
	case "inter":
		return core.Command{Exec: "grep", Args: []string{"-c", "the", "serve.txt"}, InputFiles: []string{"serve.txt"}}
	case "analytics":
		return core.Command{Exec: "gawk", Args: []string{wordFreq, "serve.txt"}, InputFiles: []string{"serve.txt"}}
	default:
		f := fmt.Sprintf("z/%02d.txt", seq%serveCopies)
		return core.Command{Exec: "gzip", Args: []string{f}, InputFiles: []string{f}}
	}
}

// serveWant is what a tenant's request must print on the served file.
func serveWant(tenant string, data []byte) string {
	switch tenant {
	case "inter":
		return wantGrepCount(data, "the")
	case "analytics":
		return wantDistinctWords(data)
	default:
		return "" // gzip prints nothing; its output file is checked after the drain
	}
}

// serveTenants declares the mix at total offered rate lambda: interactive
// grep (Poisson, 40%, weight 4), background gawk (Poisson, 30%), background
// gzip (on/off bursts at twice its 30% share, 50 ms phases).
func serveTenants(lambda float64, cost int64, deadline time.Duration) []serve.TenantSpec {
	one := func(name string) []serve.Workload {
		return []serve.Workload{{Weight: 1, Cost: cost, Make: func(seq int64) core.Command { return serveCmd(name, seq) }}}
	}
	return []serve.TenantSpec{
		{Name: "inter", Class: serve.Interactive, Weight: 4, SLO: serveSLO, Deadline: deadline,
			Arrival: serve.Arrival{Kind: serve.Poisson, Rate: 0.4 * lambda}, Workloads: one("inter")},
		{Name: "analytics", Class: serve.Background, Weight: 2,
			Arrival: serve.Arrival{Kind: serve.Poisson, Rate: 0.3 * lambda}, Workloads: one("analytics")},
		{Name: "compress", Class: serve.Background, Weight: 1,
			Arrival: serve.Arrival{Kind: serve.OnOff, Rate: 0.6 * lambda,
				OnMean: 50 * time.Millisecond, OffMean: 50 * time.Millisecond},
			Workloads: one("compress")},
	}
}

// policyOutcome reports whether err is something the serving policy does on
// purpose under load — shedding, expiring a deadline, refusing a retry.
// Such requests are unserved, not failed operations.
func policyOutcome(err error) bool {
	return errors.Is(err, serve.ErrAdmissionShed) ||
		errors.Is(err, cluster.ErrDeadlineExceeded) ||
		errors.Is(err, cluster.ErrRetryBudgetExhausted)
}

// pointResult is what one load point contributes.
type pointResult struct {
	allMs, interMs, bgMs []float64 // served-request latencies, ms: every tenant, interactive, bursty compress
	arrived              int64
	unserved             int64
	violations           int64
	waitNS, waits        int64
	backlog              bool
	servedBytes          int64
	span                 sim.Duration // Start to drain
	joules               float64
	closedLoopRPS        float64
	histP99, exactP99    float64 // interactive tenant: bucketed vs exact, ms
}

// serveRep runs the load points (r80 and gray; all four in a traced run),
// each on a fresh 4-device cluster with the file replicated everywhere and a
// closed-loop warm-up before the open loop starts.
func serveRep(r *rep) {
	r.clock.enter(phaseSetup)
	// The generator overshoots by up to a paragraph; cut at the last word
	// that fits, so the seed changes what is served and (by a few bytes)
	// how much, but not the load.
	data := textgen.Book(r.seed, serveFileBytes)
	data = data[:bytes.LastIndexByte(data[:serveFileBytes], ' ')]
	arrivals := r.scaled(serveArrivals, 120)
	warmup := r.scaled(serveWarmup, 16)
	outputs := crc32.NewIEEE()

	points := map[string]*pointResult{}
	for _, pt := range servePoints {
		if pt.detail && !r.detail {
			continue
		}
		points[pt.name] = r.servePoint(pt, data, arrivals, warmup, outputs)
		if r.failed > 0 {
			return
		}
	}
	r.hash("serve.outputs", outputs.Sum32())

	r80 := points["r80"]
	r.sim["sim_mbps"] = mbps(r80.servedBytes, r80.span)
	r.sim["sim_j_per_gb"] = energy.JoulesPerGB(r80.joules, r80.servedBytes)
	r.sim["energy.isps_j"] = r80.joules
	// End to end is every tenant's served requests at r80; the interactive
	// tenant's own percentiles are layer metrics. Its p99 rests on a dozen
	// requests caught in one or two bursts and moves by tens of percent
	// when service times change by one — too brittle to carry a bound.
	r.latency("sim_mean_ms", "sim_p99_ms", r80.allMs)
	r.sim["serve.p50_ms_r80"] = r.latency("", "serve.p99_ms_r80", r80.interMs)
	r.latency("", "serve.bg_p99_ms_r80", r80.bgMs)
	r.latency("", "serve.p99_ms_gray", points["gray"].interMs)
	if r.detail {
		r.latency("", "serve.p99_ms_r50", points["r50"].interMs)
		r.latency("", "serve.p99_ms_r110", points["r110"].interMs)
	}
	r.sim["serve.closed_loop_rps"] = r80.closedLoopRPS
	if r80.exactP99 > 0 {
		r.sim["obs.hist_p99_err_frac"] = (r80.histP99 - r80.exactP99) / r80.exactP99
	}

	var arrived, unserved, violations, waitNS, waits int64
	for _, pt := range servePoints {
		p := points[pt.name]
		if p == nil {
			continue
		}
		arrived += p.arrived
		unserved += p.unserved
		violations += p.violations
		waitNS += p.waitNS
		waits += p.waits
		// The highest plain rate that meets the interactive limit, serves
		// at least 99% of all tenants' requests, and drains.
		if r.detail && !pt.gray && r.sim["serve.slo_rate_rps"] < pt.rps {
			p99, _ := quantile(p.interMs, 0.99)
			if p99 <= ms(serveSLO) && float64(p.unserved) <= 0.01*float64(p.arrived) && !p.backlog {
				r.sim["serve.slo_rate_rps"] = pt.rps
			}
		}
	}
	r.sim["serve.arrived"] = float64(arrived)
	r.sim["serve.unserved_frac"] = float64(unserved) / float64(arrived)
	r.sim["serve.slo_violations"] = float64(violations)
	if waits > 0 {
		r.sim["serve.wait_mean_ms"] = float64(waitNS) / float64(waits) / 1e6
	}
}

// servePoint builds one cluster, warms it up, runs the open loop to drain,
// and checks every response.
func (r *rep) servePoint(pt servePoint, data []byte, arrivals, warmup int, outputs io.Writer) *pointResult {
	r.clock.enter(phaseSetup)
	res := &pointResult{}
	want := map[string]string{}
	for _, tn := range []string{"inter", "analytics", "compress"} {
		want[tn] = serveWant(tn, data)
	}
	sys := r.system(pt.name, core.SystemConfig{CompStors: serveDevices, Geometry: benchGeometry})
	pool := cluster.NewPool(sys.Eng, sys.Devices)
	pool.SetObs(r.scope(pt.name))
	horizon := time.Duration(float64(arrivals) / pt.rps * 1e9)
	var deadline time.Duration
	if pt.gray {
		// The tolerant pool of `-run tail`: hedged requests, gray-failure
		// health scoring with the quarantine dwell scaled to the run, a
		// retry budget, jittered backoff, and a per-request deadline.
		pool.Hedge = cluster.DefaultHedgePolicy()
		pool.Health = cluster.DefaultHealthPolicy()
		pool.Health.Cooldown = horizon / 8
		pool.Budget = cluster.DefaultRetryBudget()
		pool.Retry.Jitter = true
		pool.SetSeed(serveTraceSeed)
		deadline = serveDeadline
	}
	srv := serve.New(sys.Eng, pool, r.scope(pt.name), serve.Config{
		Seed:    serveTraceSeed,
		Horizon: horizon,
		Tenants: serveTenants(pt.rps, int64(len(data)), deadline),
		Limits:  serve.Limits{MaxQueuedPerTenant: 24, MaxOutstanding: 256},
	})
	var inj *chaos.Injector
	var j0 float64
	var sp *spanHandle
	sys.Go("driver", func(p *sim.Proc) {
		files := []cluster.File{{Name: "serve.txt", Data: data}}
		for c := int64(0); c < serveCopies; c++ {
			files = append(files, cluster.File{Name: serveCmd("compress", c).Args[0], Data: data})
		}
		if err := pool.StageReplicated(p, files); err != nil {
			r.fail(1, "serve_mix %s: staging: %v", pt.name, err)
			return
		}
		// Closed-loop warm-up in the tenant mix's proportions (4 grep :
		// 3 gawk : 3 gzip), every dispatch slot busy. Its rate is the
		// capacity the frozen rates are fractions of.
		t0 := p.Now()
		next := 0
		var wg sim.WaitGroup
		workers := pool.PerDeviceTasks * pool.Size()
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			sys.Eng.Go(fmt.Sprintf("warm%d", w), func(wp *sim.Proc) {
				defer wg.Done()
				for next < warmup {
					kind := "compress"
					if m := next % 10; m < 4 {
						kind = "inter"
					} else if m < 7 {
						kind = "analytics"
					}
					cmd := serveCmd(kind, int64(next))
					next++
					r.attempted++
					tr := pool.Dispatch(wp, cluster.LeastOutstanding{}, cmd)
					if tr.Err != nil || string(tr.Resp.Stdout) != want[kind] {
						r.fail(1, "serve_mix %s: warm-up %s: %v", pt.name, kind, tr.Err)
					}
				}
			})
		}
		wg.Wait(p)
		res.closedLoopRPS = float64(warmup) / p.Now().Sub(t0).Seconds()
		if pt.gray {
			at := p.Now().Duration()
			inj = chaos.Install(sys, chaos.NewPlan(serveTraceSeed+3).WithDevice(0, chaos.DeviceFaults{
				FailSlowAt: at + horizon/4, FailSlowFor: horizon / 2, FailSlowFactor: serveFailSlow,
			}))
		}
		r.clock.enter(phaseMeasured)
		sp = r.tr.begin("serve/"+pt.name, p.Now()) // ends when the engine drains
		j0 = ispsJoules(sys, p.Now())
		srv.Start()
	})
	sys.Run()
	sp.end(sys.Eng.Now())
	r.clock.enter(phaseOff)
	if r.failed > 0 {
		sys.Close()
		return res
	}
	if n := srv.Unfinished(); n != 0 {
		r.fail(int64(n), "serve_mix %s: %d admitted requests unfinished after drain", pt.name, n)
	}
	res.span = sys.Eng.Now().Sub(srv.Started())
	res.joules = ispsJoules(sys, sys.Eng.Now()) - j0

	// Every response against the oracle; latencies from the arrival instant.
	lastOK := srv.Started().Add(horizon + serveDrainSlack)
	var allInterMs []float64
	for _, rr := range srv.Results() {
		r.attempted++
		res.arrived++
		if rr.Finished > lastOK {
			res.backlog = true
		}
		if !errors.Is(rr.Err, serve.ErrAdmissionShed) && rr.Tenant == "inter" {
			allInterMs = append(allInterMs, ms(rr.Latency))
		}
		switch {
		case rr.Err == nil:
			if got := string(rr.Output); got != want[rr.Tenant] {
				r.fail(1, "serve_mix %s: %s request %d printed %q, want %q", pt.name, rr.Tenant, rr.Seq, got, want[rr.Tenant])
			}
			outputs.Write(rr.Output)
			res.servedBytes += int64(len(data))
			res.allMs = append(res.allMs, ms(rr.Latency))
			switch rr.Tenant {
			case "inter":
				res.interMs = append(res.interMs, ms(rr.Latency))
			case "compress":
				res.bgMs = append(res.bgMs, ms(rr.Latency))
			}
		case policyOutcome(rr.Err):
			res.unserved++
		default:
			r.fail(1, "serve_mix %s: %s request %d: %v", pt.name, rr.Tenant, rr.Seq, rr.Err)
		}
		r.hash("serve."+pt.name, rr.Finished)
	}
	sort.Float64s(res.interMs)
	for _, tn := range []string{"inter", "analytics", "compress"} {
		st := srv.Stats(tn)
		res.violations += st.Violations
		res.waitNS += int64(st.Wait.Sum())
		res.waits += st.Wait.Count()
		r.hash("serve."+pt.name+"."+tn, []int64{st.Arrived, st.Admitted, st.Shed, st.Finished, st.Failed})
	}
	// The serve layer's own histogram against the exact order statistic on
	// the same population (every dispatched interactive request).
	sort.Float64s(allInterMs)
	res.exactP99, _ = quantile(allInterMs, 0.99)
	res.histP99 = ms(srv.Stats("inter").Latency.Quantile(0.99))

	// Every compressed copy a device holds must expand to the served file.
	sys.Go("verify", func(p *sim.Proc) {
		for i, u := range sys.Devices {
			view := u.Client.FS()
			for c := int64(0); c < serveCopies; c++ {
				name := serveCmd("compress", c).Args[0] + ".gz"
				if _, err := view.FS().Stat(name); err != nil {
					continue // no gzip of this copy landed on this device
				}
				r.attempted++
				z, err := view.ReadFile(p, name)
				if err == nil {
					z, err = gunzipStd(z)
				}
				if err != nil || string(z) != string(data) {
					r.fail(1, "serve_mix %s: device %d %s does not expand to the served file (%v)", pt.name, i, name, err)
				}
			}
		}
	})
	r.hash("serve."+pt.name+".end", r.finish(sys))
	hs, hc := pool.HedgeStats(), pool.HealthStats()
	r.hash("serve."+pt.name+".hedge", []int64{hs.Issued, hs.Won, hs.Wasted, hc.Quarantines, hc.Readmits, hc.Probes})
	if inj != nil {
		r.sim["chaos.failslow_waits"] = float64(inj.Stats().FailSlowWaits)
	}
	return res
}
