package experiments

import (
	"fmt"
	"io"
	"time"

	"compstor/internal/chaos"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/serve"
	"compstor/internal/sim"
	"compstor/internal/textgen"
	"compstor/internal/trace"
)

// The serving experiment models ROADMAP item 1: production traffic from
// many tenants against a shared 2-device cluster, reported as tail latency
// vs. offered load. Offered load is expressed as a fraction of the
// cluster's calibrated capacity (a closed-loop saturation run of the same
// workload mix), so the knee lands at a meaningful x-axis position at any
// corpus scale. Three tenants share the cluster:
//
//   - inter:     interactive grep, Poisson, 40% of offered requests,
//     weight 4, SLO = 5x the calibration p99
//   - analytics: background gawk word-frequency, Poisson, 30%
//   - compress:  background gzip, on/off bursty, 30% (rate doubles
//     during on-phases)
const (
	servingDevices        = 2
	servingTargetArrivals = 300 // arrivals per measured point
	servingCalibrationReq = 120 // closed-loop requests for the capacity probe
	servingSLOFactor      = 5   // SLO = factor x calibration p99
)

// servingLoads is the offered-load sweep, as fractions of calibrated
// capacity.
var servingLoads = []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5}

// ServingTenantPoint is one tenant's outcome at one offered-load point.
type ServingTenantPoint struct {
	Tenant     string
	Class      string
	Arrived    int64
	Admitted   int64
	Shed       int64
	Finished   int64
	Failed     int64
	Violations int64
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
	Attainment float64
}

// ServingPoint is one measured point of the knee curve.
type ServingPoint struct {
	Name       string
	Load       float64 // fraction of calibrated capacity
	Chaos      string  // "", "slow-device", "power-cut"
	OfferedRPS float64
	Horizon    time.Duration
	Tenants    []ServingTenantPoint
	TotalShed  int64
}

// Tenant returns the named tenant's row (zero value if absent).
func (pt ServingPoint) Tenant(name string) ServingTenantPoint {
	for _, t := range pt.Tenants {
		if t.Tenant == name {
			return t
		}
	}
	return ServingTenantPoint{}
}

// ServingResult is the whole serving evaluation.
type ServingResult struct {
	Devices     int
	FileBytes   int
	CapacityRPS float64
	CalibP99    time.Duration
	SLO         time.Duration
	// KneeLoad is the highest chaos-free offered load at which the
	// interactive tenant's SLO attainment stays >= 99%.
	KneeLoad float64
	Points   []ServingPoint
}

// servingData synthesises the file every request scans (or compresses).
func (o Options) servingData() []byte {
	size := min(max(o.MeanBookBytes*2, 16<<10), 256<<10)
	return textgen.Corpus(textgen.Config{Seed: o.Seed, Books: 1, MeanBookBytes: size})[0].Data
}

// servingMixCmd maps a request index onto the tenant mix's command
// proportions (4 grep : 3 gawk : 3 gzip) — used by the closed-loop
// calibration so capacity reflects the same blend the open-loop tenants
// offer.
func servingMixCmd(idx int) core.Command {
	switch {
	case idx%10 < 4:
		return servingGrepCmd()
	case idx%10 < 7:
		return servingGawkCmd()
	default:
		return servingGzipCmd()
	}
}

func servingGrepCmd() core.Command {
	return core.Command{Exec: "grep", Args: []string{"-c", "the", "serve.txt"}, InputFiles: []string{"serve.txt"}}
}

func servingGawkCmd() core.Command {
	return core.Command{Exec: "gawk", Args: []string{wordFreqProg, "serve.txt"}, InputFiles: []string{"serve.txt"}}
}

func servingGzipCmd() core.Command {
	return core.Command{Exec: "gzip", Args: []string{"serve.txt"}, InputFiles: []string{"serve.txt"}}
}

// servingTenants declares the fixed three-tenant mix at total offered rate
// lambda (requests/s).
func servingTenants(lambda float64, slo time.Duration, cost int64) []serve.TenantSpec {
	return []serve.TenantSpec{
		{
			Name: "inter", Class: serve.Interactive, Weight: 4,
			Arrival:   serve.Arrival{Kind: serve.Poisson, Rate: 0.4 * lambda},
			Workloads: []serve.Workload{{Weight: 1, Cost: cost, Make: func(int64) core.Command { return servingGrepCmd() }}},
			SLO:       slo,
		},
		{
			Name: "analytics", Class: serve.Background, Weight: 2,
			Arrival:   serve.Arrival{Kind: serve.Poisson, Rate: 0.3 * lambda},
			Workloads: []serve.Workload{{Weight: 1, Cost: cost, Make: func(int64) core.Command { return servingGawkCmd() }}},
		},
		{
			// 50/50 on/off phases at twice the share rate: the same mean
			// offered load, delivered in bursts.
			Name: "compress", Class: serve.Background, Weight: 1,
			Arrival: serve.Arrival{
				Kind: serve.OnOff, Rate: 0.6 * lambda,
				OnMean: 50 * time.Millisecond, OffMean: 50 * time.Millisecond,
			},
			Workloads: []serve.Workload{{Weight: 1, Cost: cost, Make: func(int64) core.Command { return servingGzipCmd() }}},
		},
	}
}

// openLoop runs one open-loop serving point on an n-device cluster with
// serve.txt replicated on every device. arm, when non-nil, sets pool
// policies before anything runs; a non-nil plan installs chaos; rejoinAt > 0
// remounts and revives device 0 at that virtual time (the power-cut
// composition). It returns the drained server and its pool for read-out.
func (o Options) openLoop(name string, n int, cfg serve.Config, data []byte,
	arm func(*cluster.Pool), plan *chaos.Plan, rejoinAt time.Duration) (*serve.Server, *cluster.Pool) {
	scope := o.Obs.Scope(name)
	sys, pool := o.newCluster(scope, core.SystemConfig{CompStors: n})
	if arm != nil {
		arm(pool)
	}
	if plan != nil {
		chaos.Install(sys, plan)
	}
	cfg.Seed = o.Seed
	srv := serve.New(sys.Eng, pool, scope, cfg)
	sys.Go("driver", func(p *sim.Proc) {
		if err := pool.StageReplicated(p, []cluster.File{{Name: "serve.txt", Data: data}}); err != nil {
			panic(fmt.Sprintf("open-loop stage %s: %v", name, err))
		}
		srv.Start()
	})
	if rejoinAt > 0 {
		sys.Go("rejoin", func(p *sim.Proc) {
			p.WaitUntil(sim.Time(rejoinAt))
			if _, err := pool.Unit(0).Drive.Remount(p); err != nil {
				panic(fmt.Sprintf("open-loop rejoin %s: %v", name, err))
			}
			pool.Revive(0)
		})
	}
	sys.Run()
	if n := srv.Unfinished(); n != 0 {
		panic(fmt.Sprintf("open-loop %s: %d requests unfinished after drain", name, n))
	}
	sys.Close()
	return srv, pool
}

// servingRun measures one point of the three-tenant mix.
func (o Options) servingRun(name string, load, lambda float64, horizon time.Duration,
	slo time.Duration, data []byte, plan *chaos.Plan, chaosName string, rejoinAt time.Duration) ServingPoint {
	o.logf("serving: %s (%.0f req/s offered, horizon %v)...", name, lambda, horizon)
	srv, _ := o.openLoop(name, servingDevices, serve.Config{
		Horizon: horizon,
		Tenants: servingTenants(lambda, slo, int64(len(data))),
		Limits: serve.Limits{
			// The per-tenant backlog cap is the binding admission knob,
			// sized between the sub-knee burst peak (~15% of this) and the
			// overload backlog (~2x this); the global budget is set loose
			// enough to never mask it.
			MaxQueuedPerTenant: 24,
			MaxOutstanding:     256,
		},
	}, data, nil, plan, rejoinAt)

	pt := ServingPoint{
		Name: name, Load: load, Chaos: chaosName,
		OfferedRPS: lambda, Horizon: horizon,
	}
	for _, tn := range []string{"inter", "analytics", "compress"} {
		st := srv.Stats(tn)
		class := serve.Background.String()
		if tn == "inter" {
			class = serve.Interactive.String()
		}
		pt.Tenants = append(pt.Tenants, ServingTenantPoint{
			Tenant: tn, Class: class,
			Arrived: st.Arrived, Admitted: st.Admitted, Shed: st.Shed,
			Finished: st.Finished, Failed: st.Failed, Violations: st.Violations,
			P50:        time.Duration(st.Latency.Quantile(0.50)),
			P95:        time.Duration(st.Latency.Quantile(0.95)),
			P99:        time.Duration(st.Latency.Quantile(0.99)),
			Attainment: st.Attainment(),
		})
		pt.TotalShed += st.Shed
	}
	return pt
}

// Serving runs the open-loop multi-tenant serving evaluation: calibrate
// capacity closed-loop, sweep offered load through the knee, then compose
// the mid-load point with a slow device and with a mid-burst power cut +
// rejoin.
func Serving(o Options) ServingResult {
	data := o.servingData()
	o.logf("serving: calibrating capacity on %d devices...", servingDevices)
	capacity, calP99 := o.calibrate(servingDevices, data, servingCalibrationReq, servingMixCmd)
	slo := servingSLOFactor * calP99
	res := ServingResult{
		Devices:     servingDevices,
		FileBytes:   len(data),
		CapacityRPS: capacity,
		CalibP99:    calP99,
		SLO:         slo,
	}

	for _, load := range servingLoads {
		lambda := load * capacity
		horizon := time.Duration(float64(servingTargetArrivals) / lambda * 1e9)
		name := fmt.Sprintf("load%03d", int(load*100+0.5))
		res.Points = append(res.Points,
			o.servingRun(name, load, lambda, horizon, slo, data, nil, "", 0))
	}
	for _, pt := range res.Points {
		if t := pt.Tenant("inter"); t.Attainment >= 0.99 && pt.Load > res.KneeLoad {
			res.KneeLoad = pt.Load
		}
	}

	// Chaos composition at the mid-load point (0.75 x capacity).
	const midLoad = 0.75
	lambda := midLoad * capacity
	horizon := time.Duration(float64(servingTargetArrivals) / lambda * 1e9)
	slow := chaos.NewPlan(o.Seed+1).WithDevice(0, chaos.DeviceFaults{FailSlowFactor: 8})
	res.Points = append(res.Points,
		o.servingRun("chaos_slow", midLoad, lambda, horizon, slo, data, slow, "slow-device", 0))
	cut := chaos.NewPlan(o.Seed+2).WithDevice(0, chaos.DeviceFaults{PowerCutAt: horizon / 3})
	res.Points = append(res.Points,
		o.servingRun("chaos_powercut", midLoad, lambda, horizon, slo, data, cut, "power-cut", horizon*2/3))
	return res
}

// Render writes the serving report: the knee curve and the chaos
// compositions.
func (r ServingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Open-loop serving: %d devices, %d-byte file, capacity %.0f req/s (closed-loop), calibration p99 %v, interactive SLO %v\n\n",
		r.Devices, r.FileBytes, r.CapacityRPS, r.CalibP99, r.SLO)
	t := trace.NewTable("Tail latency vs offered load — per-tenant SLO attainment",
		"point", "load", "chaos", "tenant", "class", "arrived", "shed", "failed", "p50", "p99", "attainment")
	for _, pt := range r.Points {
		for _, tn := range pt.Tenants {
			t.AddRow(pt.Name, fmt.Sprintf("%.2f", pt.Load), pt.Chaos, tn.Tenant, tn.Class,
				tn.Arrived, tn.Shed, tn.Failed,
				tn.P50.Round(time.Microsecond).String(),
				tn.P99.Round(time.Microsecond).String(),
				fmt.Sprintf("%.1f%%", tn.Attainment*100))
		}
	}
	t.Render(w)
	fmt.Fprintf(w, "knee: interactive p99 meets its SLO (>=99%% attainment) up to %.2fx capacity;\n", r.KneeLoad)
	fmt.Fprintln(w, "past it admission control sheds load (bounded queues) instead of unbounded growth")
}
