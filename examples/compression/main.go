// Compression: the Fig 7 scenario — hybrid host + device bzip2.
//
// The corpus is split between the Xeon host (reading through NVMe from a
// conventional SSD) and four CompStors compressing in place; both sides run
// concurrently and the aggregate throughput is reported, showing in-situ
// processing *augmenting* the host rather than replacing it.
//
//	go run ./examples/compression
package main

import (
	"fmt"

	"compstor/internal/apps/appset"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/cpu"
	"compstor/internal/isps"
	"compstor/internal/sim"
	"compstor/internal/textgen"
	"compstor/internal/trace"
)

func main() {
	const devices = 4
	sys := core.NewSystem(core.SystemConfig{
		CompStors:       devices,
		ConventionalSSD: true,
		WithHost:        true,
		Registry:        appset.Base(),
	})
	pool := cluster.NewPool(sys.Eng, sys.Devices)

	books := textgen.Corpus(textgen.Config{Seed: 11, Books: 40, MeanBookBytes: 24 << 10})
	files := make([]cluster.File, len(books))
	for i, b := range books {
		files[i] = cluster.File{Name: b.Name, Data: b.Data}
	}

	// Split proportionally to calibrated bzip2 throughput.
	hostRate := cpu.Xeon().AggregateThroughput(cpu.ClassBzip2)
	devRate := cpu.ISPS().AggregateThroughput(cpu.ClassBzip2) * devices
	hostShare := hostRate / (hostRate + devRate)
	cut := int(float64(len(files)) * hostShare)
	hostFiles, devFiles := files[:cut], files[cut:]
	fmt.Printf("split: %d files to the host (%.0f%%), %d files to %d CompStors\n",
		len(hostFiles), 100*hostShare, len(devFiles), devices)

	hostView := sys.Conventional.HostView()
	var hostBytes, devBytes int64
	for _, f := range hostFiles {
		hostBytes += int64(len(f.Data))
	}
	for _, f := range devFiles {
		devBytes += int64(len(f.Data))
	}

	sys.Go("driver", func(p *sim.Proc) {
		for _, f := range hostFiles {
			if err := hostView.WriteFile(p, f.Name, f.Data); err != nil {
				panic(err)
			}
		}
		if err := hostView.Flush(p); err != nil {
			panic(err)
		}
		staged, err := pool.Stage(p, cluster.Shard(devFiles, devices))
		if err != nil {
			panic(err)
		}

		var hostElapsed, devElapsed sim.Duration
		sides := [...]string{"host-side", "device-side"}
		p.Fork(len(sides), func(i int) string { return sides[i] }, func(sp *sim.Proc, side int) {
			start := sp.Now()
			if side == 0 {
				workers := cpu.Xeon().Cores
				sp.Fork(workers, func(int) string { return "hostwork" }, func(hp *sim.Proc, wk int) {
					for i := wk; i < len(hostFiles); i += workers {
						if r := sys.Host.Run(hp, isps.TaskSpec{Exec: "bzip2", Args: []string{hostFiles[i].Name}}); r.Err != nil {
							panic(fmt.Sprintf("host bzip2 %s: %v", hostFiles[i].Name, r.Err))
						}
					}
				})
				hostElapsed = sp.Now().Sub(start)
				return
			}
			for _, r := range pool.MapFiles(sp, staged, func(name string) core.Command {
				return core.Command{Exec: "bzip2", Args: []string{name}}
			}) {
				if r.Err != nil { // a non-OK status arrives as cluster.ErrTaskFailed
					panic(fmt.Sprintf("device %d bzip2 %s: %v", r.Device, r.Name, r.Err))
				}
			}
			devElapsed = sp.Now().Sub(start)
		})

		hostMBps := float64(hostBytes) / hostElapsed.Seconds() / 1e6
		devMBps := float64(devBytes) / devElapsed.Seconds() / 1e6
		t := trace.NewTable("hybrid bzip2 compression", "side", "data", "time", "MB/s")
		t.AddRow("Xeon host", trace.Bytes(hostBytes), hostElapsed, hostMBps)
		t.AddRow(fmt.Sprintf("%d CompStors", devices), trace.Bytes(devBytes), devElapsed, devMBps)
		t.AddRow("aggregate", trace.Bytes(hostBytes+devBytes), "", hostMBps+devMBps)
		t.Render(fmtOut{})
	})
	sys.Run()

	// Energy receipt from the shared meter.
	fmt.Println("\nenergy by component:")
	for _, s := range sys.Meter.Snapshot() {
		fmt.Printf("  %-18s %8.2f J (busy %v)\n", s.Component, s.TotalJ, s.Busy)
	}
}

// fmtOut adapts fmt printing to io.Writer for the table renderer.
type fmtOut struct{}

func (fmtOut) Write(b []byte) (int, error) {
	fmt.Print(string(b))
	return len(b), nil
}
