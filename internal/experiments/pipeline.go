package experiments

import (
	"fmt"
	"io"

	"compstor/internal/core"
	"compstor/internal/ssd"
	"compstor/internal/textgen"
	"compstor/internal/trace"
)

// PipelinePoint compares one cold large-file in-situ scan on the
// serial-read ablation (the paper's synchronous read loop) against the same
// scan on the stock device, whose streaming read pipeline (ISPS page cache +
// read-ahead prefetch) overlaps reads with compute. Both sides run
// the paper's one-core-per-task executor (ScanChunks 1), so the point
// isolates the read path. Outputs must be byte-identical — the pipeline
// changes when flash time is spent, never what a program computes.
type PipelinePoint struct {
	Workload     string
	FileBytes    int64
	SerialMBps   float64
	PipelineMBps float64
	Speedup      float64
	OutputsMatch bool
	Cache        ssd.ReadCacheStats // from the pipelined run
}

// PipelineResult is the read-pipeline comparison, one point per workload.
type PipelineResult []PipelinePoint

// Pipeline measures the read pipeline on scan-class workloads. Each point
// stages one large file on a fresh single-device system and times a cold
// in-situ scan through the agent path, serial vs pipelined. grep is the
// paper-motivated headline (HeydariGorji et al. measure in-storage scans
// speeding up when I/O is pipelined with compute); wc, gawk and cat bracket
// it with higher and lower arithmetic intensity. Each speedup is bounded by
// its class's measured read-stall share (cpu.StreamCPUFraction).
func Pipeline(o Options) PipelineResult {
	data := textgen.Corpus(textgen.Config{Seed: o.Seed, Books: 1, MeanBookBytes: o.scanFileBytes()})[0].Data

	cmds := []struct {
		name string
		cmd  core.Command
	}{
		{"grep", core.Command{Exec: "grep", Args: []string{"-c", "the", "scan.txt"}}},
		{"gawk", core.Command{Exec: "gawk", Args: []string{"{n+=NF} END{print n}", "scan.txt"}}},
		{"wc", core.Command{Exec: "wc", Args: []string{"scan.txt"}}},
		{"cat", core.Command{Exec: "cat", Args: []string{"scan.txt"}}},
	}
	var out PipelineResult
	for _, c := range cmds {
		o.logf("pipeline: %s...", c.name)
		serialOut, serialEl, _ := o.scanRun("serial."+c.name, core.SystemConfig{SerialReads: true, ScanChunks: 1}, c.cmd, data)
		pipeOut, pipeEl, drive := o.scanRun("pipelined."+c.name,
			core.SystemConfig{ScanChunks: 1}, c.cmd, data)
		st, _ := drive.ReadCacheStats()
		pt := PipelinePoint{
			Workload:     c.name,
			FileBytes:    int64(len(data)),
			SerialMBps:   mbps(int64(len(data)), serialEl),
			PipelineMBps: mbps(int64(len(data)), pipeEl),
			OutputsMatch: serialOut == pipeOut,
			Cache:        st,
		}
		if pt.SerialMBps > 0 {
			pt.Speedup = pt.PipelineMBps / pt.SerialMBps
		}
		out = append(out, pt)
	}
	return out
}

// Render writes the read-pipeline report.
func (pts PipelineResult) Render(w io.Writer) {
	t := trace.NewTable("Read pipeline — cold in-situ scans, serial reads vs cached+prefetched",
		"workload", "file MB", "serial MB/s", "pipelined MB/s", "speedup", "outputs match",
		"hits", "misses", "prefetched")
	for _, pt := range pts {
		t.AddRow(pt.Workload, float64(pt.FileBytes)/1e6, pt.SerialMBps, pt.PipelineMBps,
			fmt.Sprintf("%.2fx", pt.Speedup), pt.OutputsMatch,
			pt.Cache.Hits, pt.Cache.Misses, pt.Cache.PrefetchPages)
	}
	t.Render(w)
	fmt.Fprintln(w, "the prefetcher overlaps flash reads with compute; the per-byte charge drops to the")
	fmt.Fprintln(w, "CPU share of the calibrated end-to-end rate (see cpu.StreamCPUFraction)")
}
