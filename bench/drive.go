package main

import (
	"fmt"
	"math"
	"time"

	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/flash"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

// benchGeometry is the drive every CompStor workload uses: 16 channels (the
// paper's parallelism) x 4 dies, 1 GiB — the geometry behind every figure in
// EXPERIMENTS.md, so Fig 8 comparisons are like for like.
var benchGeometry = flash.Geometry{
	Channels: 16, DiesPerChan: 4, PlanesPerDie: 1, BlocksPerPlan: 64, PagesPerBlock: 64, PageSize: 4096,
}

// corpus synthesises a plain-text book set. The seed decides every book's
// content; the sizes do not depend on it (0.5x to 2x meanBytes, spread by
// the golden-ratio sequence), so two seeds give different text of the same
// volume and size mix, and throughput numbers compare across seeds.
func corpus(seed int64, books, meanBytes int) []cluster.File {
	files := make([]cluster.File, books)
	for i := range files {
		_, u := math.Modf(float64(i+1) * 0.6180339887498949)
		files[i] = cluster.File{
			Name: fmt.Sprintf("books/book%03d.txt", i),
			Data: textgen.Book(seed+int64(i)*7919, int(float64(meanBytes)*(0.5+1.5*u))),
		}
	}
	return files
}

func totalBytes(files []cluster.File) int64 {
	var n int64
	for _, f := range files {
		n += int64(len(f.Data))
	}
	return n
}

// pinned is a cluster.Balancer that always picks one device: sharded files
// live on exactly one drive, so the benchmark routes each task itself and
// still goes through the pool's retry, strike and in-flight accounting.
type pinned int

func (d pinned) Pick(p *sim.Proc, pool *cluster.Pool) (int, error) {
	if pool.IsDead(int(d)) {
		return -1, cluster.ErrDeviceDead
	}
	return int(d), nil
}

// outcome is one closed-loop request as its client saw it.
type outcome struct {
	cmd     core.Command
	res     cluster.TaskResult
	latency time.Duration // client round trip, from the instant of issue
}

// ok reports whether the task ran to a clean exit.
func (o outcome) ok() bool {
	return o.res.Err == nil && o.res.Resp != nil && o.res.Resp.Status == core.StatusOK
}

// closedLoop issues cmds[dev] to device dev from `clients` concurrent
// clients per device; each client sends its next command when the previous
// one returns, so a slower device receives less load. All devices run at
// once and the call returns when every command has completed. A closed
// loop's request is due the instant its client is free, so latency is the
// plain round trip.
func closedLoop(p *sim.Proc, pool *cluster.Pool, clients int, cmds [][]core.Command) [][]outcome {
	out := make([][]outcome, len(cmds))
	var wg sim.WaitGroup
	for dev := range cmds {
		out[dev] = make([]outcome, len(cmds[dev]))
		n := clients
		if n > len(cmds[dev]) {
			n = len(cmds[dev])
		}
		wg.Add(n)
		for c := 0; c < n; c++ {
			dev, c, n := dev, c, n
			p.Engine().Go(fmt.Sprintf("client%d.%d", dev, c), func(cp *sim.Proc) {
				defer wg.Done()
				for i := c; i < len(cmds[dev]); i += n {
					t0 := cp.Now()
					res := pool.Dispatch(cp, pinned(dev), cmds[dev][i])
					out[dev][i] = outcome{cmd: cmds[dev][i], res: res, latency: cp.Now().Sub(t0)}
				}
			})
		}
	}
	wg.Wait(p)
	return out
}

// ispsJoules sums the energy of every CompStor's ISPS component at the
// given instant. Call it from inside the simulation: a read-out taken after
// the run would charge idle time to the window.
func ispsJoules(sys *core.System, at sim.Time) float64 {
	var j float64
	for i := range sys.Devices {
		if c := sys.Meter.Lookup(fmt.Sprintf("compstor%d/isps", i)); c != nil {
			j += c.Energy(at)
		}
	}
	return j
}

// totalJoules sums every metered component at the current virtual time, in
// name order. (Meter.Total adds them in map order, so its last digits
// differ from run to run.)
func totalJoules(sys *core.System) float64 {
	var j float64
	for _, s := range sys.Meter.Snapshot() {
		j += s.TotalJ
	}
	return j
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}
