package isps

import (
	"cmp"
	"fmt"
	"io"

	"compstor/internal/apps/splitscan"
	"compstor/internal/sim"
)

// Split-scan execution: the stock ISPS runs one large scan across all of its
// cores instead of streaming the file on one. The file is cut into chunks
// aligned to extent-run starts (else page boundaries) and realigned to
// newline boundaries by splitscan.Reader; one worker process per chunk
// queues FIFO on the shared cores, issues its own demand fetches (hitting
// different flash channels concurrently) and drives its own read-ahead
// streak; the partial results merge in chunk order on the task's own core.
// ScanChunks 1 is the paper's one-core-per-task executor: Spawn then never
// plans, and no counter here moves.

// minChunkBytes is the smallest chunk a scan is cut into: 256 KiB, one
// read-ahead run of the pipelined read path, so no chunk is shorter than a
// full sequential fill. A task is planned only when some argument names a
// file of at least two chunks.
const minChunkBytes = 256 << 10

// ParScanStats counts split-scan activity.
type ParScanStats struct {
	// Tasks is the number of tasks executed as parallel split scans.
	Tasks int64
	// Chunks is the total number of chunk workers spawned.
	Chunks int64
	// Fallbacks counts tasks with a large input — one of at least two chunk
	// floors — that ran serially all the same: a program or argv form that
	// cannot split, or a scanned file too small for two chunks.
	Fallbacks int64
}

// ParScanStats samples the split-scan counters.
func (s *Subsystem) ParScanStats() ParScanStats {
	return ParScanStats{Tasks: s.psTasks, Chunks: s.psChunks, Fallbacks: s.psFallbacks}
}

// splitPlan decides whether t runs as a split scan, returning its plan and
// chunk cuts. A task with no large input is not planned at all, so it pays no
// pattern compile or program parse; a large one that cannot split is a
// fallback.
func (s *Subsystem) splitPlan(t *task) (splitscan.Plan, []int64, bool) {
	if s.scanChunks == 1 || s.fsView == nil || !s.largeInput(t.args) {
		return splitscan.Plan{}, nil, false
	}
	plan, cuts, ok := s.cut(t)
	if !ok {
		s.psFallbacks++
	}
	return plan, cuts, ok
}

// largeInput reports whether some argument names a file of at least two
// chunk floors.
func (s *Subsystem) largeInput(args []string) bool {
	for _, a := range args {
		if info, err := s.fsView.FS().Stat(a); err == nil && info.Size >= 2*minChunkBytes {
			return true
		}
	}
	return false
}

// cut asks the program for its chunkable form and places the chunk
// boundaries: ScanChunks of them (one per core for 0), no smaller than the
// floor. A missing file is the serial run's error to report.
func (s *Subsystem) cut(t *task) (splitscan.Plan, []int64, bool) {
	sp, ok := t.prog.(splitscan.Splitter)
	if !ok {
		return splitscan.Plan{}, nil, false
	}
	plan, ok := sp.SplitPlan(t.args)
	if !ok {
		return splitscan.Plan{}, nil, false
	}
	fs := s.fsView.FS()
	info, err := fs.Stat(plan.File)
	if err != nil {
		return splitscan.Plan{}, nil, false
	}
	n := s.scanChunks
	if n <= 0 {
		n = s.cores.Capacity()
	}
	n = int(min(int64(n), info.Size/minChunkBytes))
	if n < 2 {
		return splitscan.Plan{}, nil, false
	}
	runStarts, _ := fs.ExtentRunStarts(plan.File) // nil without extents: page cuts
	cuts := splitscan.Cuts(info.Size, fs.PageSize(), runStarts, n)
	if len(cuts) < 3 {
		return splitscan.Plan{}, nil, false
	}
	return plan, cuts, true
}

// scan runs the planned chunks, one worker process each holding a core, and
// returns their partial results in chunk order with the lowest failing
// chunk's error (deterministic, and the underlying cause survives for retry
// classification). Every worker carries the task's deadline and cancel
// token, so an aborting split task drains all of its workers cooperatively.
func (s *Subsystem) scan(p *sim.Proc, t task, plan splitscan.Plan, cuts []int64) ([]any, error) {
	n := len(cuts) - 1
	s.psTasks++
	s.psChunks += int64(n)
	parts, errs := make([]any, n), make([]error, n)
	// Chunk spans parent under the task span.
	p.Fork(n, func(i int) string { return fmt.Sprintf("parscan/%s/%d", t.prog.Name(), i) }, func(wp *sim.Proc, i int) {
		s.onCore(wp, func() {
			sp := s.obs.Begin(wp, "isps/parscan", fmt.Sprintf("%s#%d", t.prog.Name(), i))
			parts[i], errs[i] = splitscan.RunChunk(s.context(wp, &t, nil, io.Discard, io.Discard), plan, cuts, i)
			sp.End()
		})
	})
	return parts, cmp.Or(errs...)
}
