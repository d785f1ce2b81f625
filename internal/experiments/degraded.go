package experiments

import (
	"fmt"
	"io"
	"time"

	"compstor/internal/chaos"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/sim"
	"compstor/internal/trace"
)

// DegradedPoint compares one workload run on a healthy cluster against the
// same run with one device killed mid-flight: the degraded-mode throughput
// record the fault-tolerance work exists to report.
type DegradedPoint struct {
	Devices       int
	HealthyMBps   float64
	DegradedMBps  float64
	SlowdownPct   float64
	DeadDevices   []int
	TotalAttempts int
	ResultsMatch  bool
}

// DegradedResult is the degraded-mode record, one point per device count.
type DegradedResult []DegradedPoint

// Degraded runs the Fig-7 grep workload for each device count, fault-free
// and then under a seeded chaos plan whose device 0 fails halfway through
// the healthy run's span. Outputs must match exactly — failover changes
// when work happens, never what it computes.
func Degraded(o Options) DegradedResult {
	w, err := WorkloadByName("grep")
	if err != nil {
		panic(err)
	}
	var out DegradedResult
	for _, n := range o.DeviceCounts {
		if n < 2 {
			continue // no survivor to fail over to
		}
		o.logf("degraded: %d device(s)...", n)
		out = append(out, o.degradedPoint(n, w))
	}
	return out
}

type degradedRun struct {
	outputs map[string]string
	elapsed sim.Duration
	dead    []int
	tries   int
}

func (o Options) degradedRun(devices int, w Workload, files []cluster.File, plan *chaos.Plan) degradedRun {
	label := "healthy"
	if plan != nil {
		label = "degraded"
	}
	sys, pool := o.newCluster(o.Obs.Scope(fmt.Sprintf("%s.n%d", label, devices)), core.SystemConfig{CompStors: devices})
	if plan != nil {
		chaos.Install(sys, plan)
	}
	run := degradedRun{outputs: make(map[string]string)}
	sys.Go("driver", func(p *sim.Proc) {
		start := p.Now()
		results, err := pool.MapFilesFT(p, files, w.Command)
		if err != nil {
			panic(fmt.Sprintf("degraded: %v", err))
		}
		run.elapsed = p.Now().Sub(start)
		for _, r := range results {
			run.tries += r.Attempts
			if r.Err == nil && r.Resp != nil {
				run.outputs[r.Name] = string(r.Resp.Stdout)
			}
		}
		run.dead = pool.DeadDevices()
	})
	sys.Run()
	sys.Close()
	return run
}

func (o Options) degradedPoint(devices int, w Workload) DegradedPoint {
	files := w.Dataset(o.corpus())
	bytes := totalBytes(files)

	healthy := o.degradedRun(devices, w, files, nil)
	plan := chaos.NewPlan(o.Seed).WithDevice(0, chaos.DeviceFaults{
		FailAt: time.Duration(healthy.elapsed) / 2,
	})
	degraded := o.degradedRun(devices, w, files, plan)

	match := len(healthy.outputs) == len(degraded.outputs)
	for name, want := range healthy.outputs {
		if degraded.outputs[name] != want {
			match = false
			break
		}
	}
	pt := DegradedPoint{
		Devices:       devices,
		HealthyMBps:   mbps(bytes, healthy.elapsed),
		DegradedMBps:  mbps(bytes, degraded.elapsed),
		DeadDevices:   degraded.dead,
		TotalAttempts: degraded.tries,
		ResultsMatch:  match,
	}
	if pt.HealthyMBps > 0 {
		pt.SlowdownPct = 100 * (1 - pt.DegradedMBps/pt.HealthyMBps)
	}
	return pt
}

// Render writes the degraded-mode throughput report.
func (pts DegradedResult) Render(w io.Writer) {
	t := trace.NewTable("Degraded mode — grep scatter/gather, 1 device killed mid-run",
		"devices", "healthy MB/s", "degraded MB/s", "slowdown %", "dead", "attempts", "results match")
	for _, pt := range pts {
		t.AddRow(pt.Devices, pt.HealthyMBps, pt.DegradedMBps, pt.SlowdownPct,
			fmt.Sprint(pt.DeadDevices), pt.TotalAttempts, pt.ResultsMatch)
	}
	t.Render(w)
	fmt.Fprintln(w, "failover re-shards a dead device's unfinished files over the survivors;")
	fmt.Fprintln(w, "outputs stay byte-identical while throughput degrades by roughly one device's share")
}
