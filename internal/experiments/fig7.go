package experiments

import (
	"fmt"
	"io"

	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/cpu"
	"compstor/internal/sim"
	"compstor/internal/trace"
)

// Fig7Point is one configuration of the aggregated host+CompStor bzip2
// experiment: the corpus is split between the Xeon host (with its own
// conventional SSD) and N CompStors, all compressing concurrently.
type Fig7Point struct {
	Devices   int
	HostMBps  float64
	DevMBps   float64
	TotalMBps float64
}

// Fig7Result is the aggregated-performance curve, one point per device count.
type Fig7Result []Fig7Point

// Fig7 runs the aggregated-performance experiment for each device count.
func Fig7(o Options) Fig7Result {
	w, err := WorkloadByName("bzip2")
	if err != nil {
		panic(err)
	}
	var out Fig7Result
	for _, n := range o.DeviceCounts {
		o.logf("fig7: host + %d device(s)...", n)
		out = append(out, o.fig7Point(n, w))
	}
	return out
}

func (o Options) fig7Point(devices int, w Workload) Fig7Point {
	files := w.Dataset(o.corpus())
	sys, pool := o.newCluster(o.Obs.Scope(fmt.Sprintf("n%d", devices)),
		core.SystemConfig{CompStors: devices, ConventionalSSD: true, WithHost: true})

	// Split the corpus proportionally to the calibrated aggregate
	// throughputs, as the paper "distributed the whole set of the input
	// files between the host and several CompStors".
	hostRate := cpu.Xeon().AggregateThroughput(cpu.ClassBzip2)
	devRate := cpu.ISPS().AggregateThroughput(cpu.ClassBzip2) * float64(devices)
	hostShare := hostRate / (hostRate + devRate)
	var hostFiles, devFiles []cluster.File
	var acc, total int64
	for _, f := range files {
		total += int64(len(f.Data))
	}
	for _, f := range files {
		if float64(acc) < hostShare*float64(total) {
			hostFiles = append(hostFiles, f)
			acc += int64(len(f.Data))
		} else {
			devFiles = append(devFiles, f)
		}
	}

	var pt Fig7Point
	pt.Devices = devices
	hostView := sys.Conventional.HostView()
	var elapsed [2]sim.Duration // host side, device side
	var hostBytes, devBytes int64
	for _, f := range hostFiles {
		hostBytes += int64(len(f.Data))
	}
	for _, f := range devFiles {
		devBytes += int64(len(f.Data))
	}

	sys.Go("driver", func(p *sim.Proc) {
		// Stage both sides before timing.
		stageFiles(p, hostView, hostFiles...)
		staged, err := pool.Stage(p, cluster.Shard(devFiles, devices))
		if err != nil {
			panic(fmt.Sprintf("fig7 staging: %v", err))
		}

		sides := [...]string{"host-side", "device-side"}
		p.Fork(len(sides), func(i int) string { return sides[i] }, func(sp *sim.Proc, side int) {
			start := sp.Now()
			if side == 0 {
				hostWorkers(sp, sys, w, hostFiles)
			} else {
				for _, r := range pool.MapFiles(sp, staged, w.Command) {
					if r.Err != nil { // a non-OK status arrives as cluster.ErrTaskFailed
						panic(fmt.Sprintf("fig7: %s %s: %v", w.Name, r.Name, r.Err))
					}
				}
			}
			elapsed[side] = sp.Now().Sub(start)
		})
	})
	sys.Run()
	sys.Close()

	pt.HostMBps = mbps(hostBytes, elapsed[0])
	pt.DevMBps = mbps(devBytes, elapsed[1])
	pt.TotalMBps = pt.HostMBps + pt.DevMBps
	return pt
}

// Render writes the aggregated-performance report.
func (pts Fig7Result) Render(w io.Writer) {
	t := trace.NewTable("Fig 7 — aggregated bzip2 throughput, Xeon host + N CompStors",
		"devices", "host MB/s", "devices MB/s", "total MB/s")
	for _, pt := range pts {
		t.AddRow(pt.Devices, pt.HostMBps, pt.DevMBps, pt.TotalMBps)
	}
	t.Render(w)
	if len(pts) >= 2 {
		first, last := pts[0], pts[len(pts)-1]
		fmt.Fprintf(w, "device aggregate grew %.2fx while host stayed ~flat (%.2fx); ",
			safeDiv(last.DevMBps, first.DevMBps), safeDiv(last.HostMBps, first.HostMBps))
		cross := "no crossover in range"
		for _, pt := range pts {
			if pt.DevMBps >= pt.HostMBps {
				cross = fmt.Sprintf("devices overtake the host at N=%d", pt.Devices)
				break
			}
		}
		fmt.Fprintln(w, cross)
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
