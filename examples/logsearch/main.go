// Logsearch: IO-intensive distributed search across 8 CompStors.
//
// The scenario from the paper's introduction: a storage node holds far more
// data than the host can ingest, so the search runs where the data lives.
// A log corpus is sharded over 8 devices; grep and a gawk aggregation run
// as concurrent minions, and a final interactive query is placed on the
// least-loaded device.
//
//	go run ./examples/logsearch
package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"compstor/internal/apps/appset"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/sim"
	"compstor/internal/textgen"
	"compstor/internal/trace"
)

func main() {
	const devices = 8
	sys := core.NewSystem(core.SystemConfig{
		CompStors: devices,
		Registry:  appset.Base(),
	})
	pool := cluster.NewPool(sys.Eng, sys.Devices)

	// Synthesise a "log" corpus: 64 files, ~32 KB each.
	books := textgen.Corpus(textgen.Config{Seed: 7, Books: 64, MeanBookBytes: 32 << 10})
	files := make([]cluster.File, len(books))
	for i, b := range books {
		files[i] = cluster.File{Name: b.Name, Data: b.Data}
	}
	total := textgen.TotalBytes(books)

	sys.Go("driver", func(p *sim.Proc) {
		staged, err := pool.Stage(p, cluster.Shard(files, devices))
		if err != nil {
			panic(err)
		}
		fmt.Printf("staged %d files (%s) across %d devices\n",
			len(files), trace.Bytes(total), devices)

		// Distributed grep: count occurrences of "the" per file, in-situ.
		start := p.Now()
		results := pool.MapFiles(p, staged, func(name string) core.Command {
			return core.Command{Exec: "grep", Args: []string{"-c", "the", name}}
		})
		elapsed := p.Now().Sub(start)
		matches := 0
		for _, r := range results {
			var n int
			fmt.Sscanf(string(mustOK(r).Stdout), "%d", &n)
			matches += n
		}
		fmt.Printf("distributed grep: %d matching lines in %v (%s aggregate)\n",
			matches, elapsed, trace.MBps(float64(total)/elapsed.Seconds()))

		// Distributed gawk: a word-length histogram per device over (up to
		// four of) that device's own files, one script pipeline per device,
		// all inside the SSDs. The map "name" is the device's file list.
		perDevice := make([][]string, devices)
		for d, names := range staged {
			if len(names) > 4 {
				names = names[:4]
			}
			perDevice[d] = []string{strings.Join(names, " ")}
		}
		start = p.Now()
		results = pool.MapFiles(p, perDevice, func(names string) core.Command {
			return core.Command{
				Script: `gawk '{ for (i = 1; i <= NF; i++) n[length($i)]++ } END { for (l in n) print l, n[l] }' ` + names,
			}
		})
		hist := map[int]int{}
		for _, r := range results {
			for _, line := range strings.Split(strings.TrimSpace(string(mustOK(r).Stdout)), "\n") {
				var length, count int
				fmt.Sscanf(line, "%d %d", &length, &count)
				hist[length] += count
			}
		}
		lengths := make([]int, 0, len(hist))
		for l := range hist {
			lengths = append(lengths, l)
		}
		// Map order is random: sort by length first, so that equal counts
		// print shortest first on every run.
		sort.Ints(lengths)
		sort.SliceStable(lengths, func(i, j int) bool { return hist[lengths[i]] > hist[lengths[j]] })
		fmt.Printf("gawk histogram over %d devices finished in %v; commonest word lengths:", devices, p.Now().Sub(start))
		for _, l := range lengths[:3] {
			fmt.Printf(" %d letters x%d", l, hist[l])
		}
		fmt.Println()

		// Interactive query: pick the device with the fewest tasks in flight,
		// then ask it about a file it holds.
		dev, err := cluster.LeastOutstanding{}.Pick(p, pool)
		if err != nil {
			panic(err)
		}
		r := pool.Dispatch(p, onDevice(dev), core.Command{
			Script: `grep -c CHAPTER ` + staged[dev][0],
		})
		fmt.Printf("balanced query ran on device %d -> %s chapter headings in %s\n",
			r.Device, strings.TrimSpace(string(mustOK(r).Stdout)), staged[dev][0])
	})
	sys.Run()

	// Fabric receipt: in-situ search moved commands and counts, not logs.
	up := sys.Fabric.Uplink()
	fmt.Printf("PCIe uplink carried %s total (corpus is %s)\n",
		trace.Bytes(up.Bytes()), trace.Bytes(total))
}

// onDevice is a cluster.Balancer that places a task on one chosen device.
type onDevice int

func (d onDevice) Pick(*sim.Proc, *cluster.Pool) (int, error) { return int(d), nil }

// mustOK returns the task's response, or ends the example with a non-zero
// exit if the task failed or reported a non-OK status.
func mustOK(r cluster.TaskResult) *core.Response {
	if r.Err != nil || r.Resp == nil || r.Resp.Status != core.StatusOK {
		fmt.Fprintf(os.Stderr, "logsearch: device %d, %q: err=%v resp=%+v\n", r.Device, r.Name, r.Err, r.Resp)
		os.Exit(1)
	}
	return r.Resp
}
