package main

import (
	"fmt"
	"hash/crc32"

	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/energy"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

// scan sizes. The working set per device (about 10 MiB of books plus one
// 16 MiB file) is below the read pipeline's default 64 MiB cache, so once a
// cache is the default device the second and third pass are expected to
// hit it; flash starts cold in every repetition.
const (
	scanDevices   = 4
	scanBooks     = 348
	scanMeanBytes = 96 << 10
	scanBigBytes  = 16 << 20
	scanPasses    = 3
	scanClients   = 4 // per device: one per ISPS core
)

// scanRep is the read-only workload: after staging, three passes of grep,
// wc and cksum over many small files (which already fill all four ISPS
// cores of each device), then one grep over a single big file per device
// (serial on one core in the stock device).
func scanRep(r *rep) {
	r.clock.enter(phaseSetup)
	books := corpus(r.seed, r.scaled(scanBooks, 8), r.scaled(scanMeanBytes, 4<<10))
	shards := cluster.Shard(books, scanDevices)
	big := make([]cluster.File, scanDevices)
	for d := range big {
		big[d] = cluster.File{
			Name: fmt.Sprintf("big/dev%d.txt", d),
			Data: textgen.Book(r.seed+int64(1000+d), r.scaled(scanBigBytes, 64<<10)),
		}
	}
	staged := make([][]cluster.File, scanDevices)
	for d := range shards {
		staged[d] = append(append([]cluster.File(nil), shards[d]...), big[d])
	}

	sys := r.system("scan", core.SystemConfig{CompStors: scanDevices, Geometry: benchGeometry})
	pool := cluster.NewPool(sys.Eng, sys.Devices)
	pool.SetObs(r.scope("scan"))

	kinds := []struct {
		name string
		cmd  func(file string) core.Command
	}{
		{"grep", func(f string) core.Command { return core.Command{Exec: "grep", Args: []string{"-c", "the", f}} }},
		{"wc", func(f string) core.Command { return core.Command{Exec: "wc", Args: []string{f}} }},
		{"cksum", func(f string) core.Command { return core.Command{Exec: "cksum", Args: []string{f}} }},
	}
	perDev := func(files [][]cluster.File, mk func(string) core.Command) [][]core.Command {
		cmds := make([][]core.Command, len(files))
		for d, fs := range files {
			for _, f := range fs {
				cmds[d] = append(cmds[d], mk(f.Name))
			}
		}
		return cmds
	}

	var many, bigOut [][]outcome
	var manyT, bigT sim.Duration
	var joules float64
	sys.Go("driver", func(p *sim.Proc) {
		if _, err := pool.Stage(p, staged); err != nil {
			r.fail(1, "scan: staging: %v", err)
			return
		}
		r.clock.enter(phaseMeasured)
		t0, j0 := p.Now(), ispsJoules(sys, p.Now())
		for pass := 0; pass < scanPasses; pass++ {
			for _, k := range kinds {
				sp := r.tr.begin(fmt.Sprintf("scan/pass%d/%s", pass+1, k.name), p.Now())
				many = append(many, closedLoop(p, pool, scanClients, perDev(shards, k.cmd))...)
				sp.end(p.Now())
			}
		}
		t1 := p.Now()
		sp := r.tr.begin("scan/big/grep", p.Now())
		bigFiles := make([][]cluster.File, scanDevices)
		for d := range big {
			bigFiles[d] = big[d : d+1]
		}
		bigOut = closedLoop(p, pool, 1, perDev(bigFiles, kinds[0].cmd))
		sp.end(p.Now())
		manyT, bigT = t1.Sub(t0), p.Now().Sub(t1)
		joules = ispsJoules(sys, p.Now()) - j0
		r.clock.enter(phaseOff)
	})
	end := r.finish(sys)
	if r.failed > 0 {
		return
	}

	// Oracle and accounting.
	data := map[string][]byte{}
	for _, fs := range staged {
		for _, f := range fs {
			data[f.Name] = f.Data
		}
	}
	var lat []float64
	outputs := crc32.NewIEEE()
	wants := map[string]string{} // expected output per command and file: every pass asks again
	check := func(o outcome, timed bool) {
		r.attempted++
		file := o.cmd.Args[len(o.cmd.Args)-1]
		if !o.ok() {
			r.fail(1, "scan: %s %s: %v", o.cmd.Exec, file, taskError(o))
			return
		}
		want, known := wants[o.cmd.Exec+" "+file]
		if !known {
			switch o.cmd.Exec {
			case "grep":
				want = wantGrepCount(data[file], "the")
			case "wc":
				want = wantWC(data[file], file)
			case "cksum":
				want = wantCksum(data[file], file)
			}
			wants[o.cmd.Exec+" "+file] = want
		}
		if got := string(o.res.Resp.Stdout); got != want {
			r.fail(1, "scan: %s %s printed %q, want %q", o.cmd.Exec, file, got, want)
		}
		outputs.Write(o.res.Resp.Stdout)
		if timed {
			lat = append(lat, ms(o.latency))
		}
	}
	for _, dev := range many {
		for _, o := range dev {
			check(o, true)
		}
	}
	for _, dev := range bigOut {
		for _, o := range dev {
			check(o, false)
		}
	}

	manyBytes := int64(scanPasses*len(kinds)) * totalBytes(books)
	bigBytes := totalBytes(big)
	r.sim["sim_mbps"] = mbps(manyBytes+bigBytes, manyT+bigT)
	r.sim["scan.many.sim_mbps"] = mbps(manyBytes, manyT)
	r.sim["scan.big.sim_mbps"] = mbps(bigBytes, bigT)
	r.sim["sim_j_per_gb"] = energy.JoulesPerGB(joules, manyBytes+bigBytes)
	r.sim["energy.isps_j"] = joules
	// Latency is the small-file tasks' client round trip; the four big-file
	// tasks are too few for a percentile and show in scan.big.sim_mbps.
	r.latency("sim_mean_ms", "sim_p99_ms", lat)
	r.hash("scan.end", end)
	r.hash("scan.outputs", outputs.Sum32())
	for i, u := range sys.Devices {
		r.hash(fmt.Sprintf("scan.dev%d.ftl", i), u.Drive.FTL().Stats())
		r.hash(fmt.Sprintf("scan.dev%d.nvme", i), u.Drive.Controller().Stats())
	}
}

// taskError explains a task that did not exit cleanly.
func taskError(o outcome) string {
	switch {
	case o.res.Err != nil:
		return o.res.Err.Error()
	case o.res.Resp == nil:
		return "no response"
	default:
		return fmt.Sprintf("status %v exit %d: %s", o.res.Resp.Status, o.res.Resp.ExitCode, o.res.Resp.Error)
	}
}
