// Package experiments reproduces every table and figure of the CompStor
// paper's evaluation on the simulated platform. Each experiment is a
// function returning structured results plus a renderer, shared between
// cmd/compstor-bench and the repository's testing.B benchmarks;
// Experiments is the table of all of them, one row each.
//
// Scale note: the paper's corpus is 348 books / 11.3 GB on a 24 TB device.
// The default options use the same file count at a reduced mean size and a
// 4 GiB-class device; every result is normalised (MB/s, J/GB), so the
// shapes — who wins, by what factor, where crossovers fall — carry over.
// EXPERIMENTS.md records paper-vs-measured for each artefact.
package experiments

import (
	"fmt"
	"io"

	"compstor/internal/apps/bzip2x"
	"compstor/internal/apps/gzipx"
	"compstor/internal/cluster"
	"compstor/internal/flash"
	"compstor/internal/obs"
	"compstor/internal/textgen"
)

// Options tunes experiment scale.
type Options struct {
	// Corpus synthesis.
	Seed          int64
	Books         int
	MeanBookBytes int
	// DeviceCounts is the x-axis of the scaling figures.
	DeviceCounts []int
	// Geometry for every simulated drive.
	Geometry flash.Geometry
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Obs, when non-nil, instruments every system the experiment builds.
	// Callers usually pass a per-experiment scope (root.Scope("fig7")) so
	// metric names from different experiments stay apart; each measurement
	// point derives a further sub-scope (e.g. "fig7.n4.compstor0.ftl.read").
	Obs *obs.Obs
}

// DefaultOptions returns the fast laptop-scale configuration used by tests
// and `go test -bench`.
func DefaultOptions() Options {
	return Options{
		Seed:          2018,
		Books:         48,
		MeanBookBytes: 16 << 10,
		DeviceCounts:  []int{1, 2, 4, 8},
		// 16 channels (the paper's parallelism) x 4 dies: enough die-level
		// write bandwidth (~436 MB/s) that host-side decompression stays
		// compute-bound, as on the paper's testbed.
		Geometry: flash.Geometry{
			Channels:      16,
			DiesPerChan:   4,
			PlanesPerDie:  1,
			BlocksPerPlan: 64,
			PagesPerBlock: 64,
			PageSize:      4096,
		},
	}
}

// PaperScaleOptions returns the heavier configuration for the standalone
// bench binary (348 books like the paper, larger means).
func PaperScaleOptions() Options {
	o := DefaultOptions()
	o.Books = 348
	o.MeanBookBytes = 24 << 10
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// corpus synthesises the plain-text book set.
func (o Options) corpus() []cluster.File {
	books := textgen.Corpus(textgen.Config{Seed: o.Seed, Books: o.Books, MeanBookBytes: o.MeanBookBytes})
	files := make([]cluster.File, len(books))
	for i, b := range books {
		files[i] = cluster.File{Name: b.Name, Data: b.Data}
	}
	return files
}

// corpusGz returns the corpus pre-compressed with our gzip (for gunzip
// workloads), as the paper's dataset ships compressed books.
func corpusGz(files []cluster.File) []cluster.File {
	out := make([]cluster.File, len(files))
	for i, f := range files {
		z, err := gzipx.Compress(f.Data)
		if err != nil {
			panic(err)
		}
		out[i] = cluster.File{Name: f.Name + ".gz", Data: z}
	}
	return out
}

// corpusBz2 returns the corpus pre-compressed with our bzip2.
func corpusBz2(files []cluster.File) []cluster.File {
	out := make([]cluster.File, len(files))
	for i, f := range files {
		out[i] = cluster.File{Name: f.Name + ".bz2", Data: bzip2x.Compress(f.Data, bzip2x.Options{})}
	}
	return out
}

func totalBytes(files []cluster.File) int64 {
	var n int64
	for _, f := range files {
		n += int64(len(f.Data))
	}
	return n
}
