package experiments

import (
	"fmt"
	"io"

	"compstor/internal/core"
	"compstor/internal/isps"
	"compstor/internal/ssd"
	"compstor/internal/textgen"
	"compstor/internal/trace"
)

// ScaleupPoint measures one scan kernel over one large file at one chunk
// fan-out (cores = ScanChunks; 1 = the paper's serial executor) on one read
// path. Speedup is against the same path's one-core point; OutputsMatch
// compares against the serial-read one-core run, so neither the read
// pipeline nor a split may change a byte. Cache is the pipeline's counters
// (zero on the serial path): the two one-core points are its comparison.
type ScaleupPoint struct {
	Workload     string
	Pipelined    bool
	Cores        int
	FileBytes    int64
	MBps         float64
	Speedup      float64
	OutputsMatch bool
	ParScan      isps.ParScanStats
	Cache        ssd.ReadCacheStats
}

// ScaleupResult is the parallel-scan matrix: kernel x read path x cores.
type ScaleupResult []ScaleupPoint

// Scaleup measures intra-device parallel scan: one minion's file split
// across the ISPS cores, each chunk worker issuing its own demand fetches
// (different flash channels) and driving its own read-ahead streak. The
// scan kernels are compute-bound on one ~1 GHz ARM core against a
// 16-channel flash array, so fanning a single file out over the quad cores
// should approach linear speedup — the serial-read ablation and the stock
// streaming read pipeline are both measured, at 1, 2 and 4 chunks.
func Scaleup(o Options) ScaleupResult {
	data := textgen.Corpus(textgen.Config{Seed: o.Seed, Books: 1, MeanBookBytes: o.scanFileBytes()})[0].Data

	cmds := []struct {
		name string
		cmd  core.Command
	}{
		{"grep", core.Command{Exec: "grep", Args: []string{"-c", "the", "scan.txt"}}},
		{"wc", core.Command{Exec: "wc", Args: []string{"scan.txt"}}},
		{"cksum", core.Command{Exec: "cksum", Args: []string{"scan.txt"}}},
		{"gawk", core.Command{Exec: "gawk", Args: []string{"{print $1}", "scan.txt"}}},
		{"cat", core.Command{Exec: "cat", Args: []string{"scan.txt"}}},
	}
	var out ScaleupResult
	for _, c := range cmds {
		var serialOut string // serial-read one-chunk stdout: the byte-identity reference
		for _, pipelined := range []bool{false, true} {
			path := "serial"
			if pipelined {
				path = "pipelined"
			}
			var base float64
			for _, cores := range []int{1, 2, 4} {
				o.logf("scaleup: %s pipelined=%v cores=%d...", c.name, pipelined, cores)
				cfg := core.SystemConfig{Ablation: ssd.Ablation{SerialReads: !pipelined, ScanChunks: cores}} // 1 = the paper's executor
				stdout, elapsed, drive := o.scanRun(fmt.Sprintf("%s.%s.c%d", path, c.name, cores), cfg, c.cmd, data)
				if !pipelined && cores == 1 {
					serialOut = stdout
				}
				pt := ScaleupPoint{
					Workload:     c.name,
					Pipelined:    pipelined,
					Cores:        cores,
					FileBytes:    int64(len(data)),
					MBps:         mbps(int64(len(data)), elapsed),
					OutputsMatch: stdout == serialOut,
					ParScan:      drive.ISPS().ParScanStats(),
				}
				pt.Cache, _ = drive.ReadCacheStats()
				if cores == 1 {
					base = pt.MBps
				}
				if base > 0 {
					pt.Speedup = pt.MBps / base
				}
				out = append(out, pt)
			}
		}
	}
	return out
}

// Render writes the intra-device parallel scan report.
func (pts ScaleupResult) Render(w io.Writer) {
	t := trace.NewTable("Intra-device parallel scan — one file split across the ISPS cores",
		"workload", "path", "cores", "file MB", "MB/s", "speedup", "outputs match", "chunks")
	for _, pt := range pts {
		path := "serial"
		if pt.Pipelined {
			path = "pipelined"
		}
		t.AddRow(pt.Workload, path, pt.Cores, float64(pt.FileBytes)/1e6, pt.MBps,
			fmt.Sprintf("%.2fx", pt.Speedup), pt.OutputsMatch, pt.ParScan.Chunks)
	}
	t.Render(w)
	fmt.Fprintln(w, "chunks are cut at extent-run starts, realigned to newline boundaries, and merged")
	fmt.Fprintln(w, "in chunk order; per-chunk readers fetch from different flash channels concurrently")
}
