// Package splitscan partitions one file into byte ranges that many ISPS
// cores scan concurrently, Hadoop-input-split style: nominal cuts are
// placed arithmetically (snapped to minfs extent-run boundaries so chunks
// follow media contiguity), and each worker realigns its range to line
// boundaries at read time — the owner of a chunk reads past its nominal
// end to finish the straddling line, and the next worker discards its
// leading partial line. Both sides apply the same rule to the same cut, so
// every line of the file is delivered to exactly one worker, with no
// coordination and no second pass over the data.
//
// The realign rule, for a cut c > 0: a chunk [s, e) delivers the bytes
// after the first '\n' at offset ≥ s−1, through the first '\n' at offset
// ≥ e−1 inclusive (or to EOF when no such newline exists); a chunk with
// s = 0 delivers from offset 0. realign is monotone in the cut, so the
// realigned ranges exactly partition the file — a chunk narrower than one
// line simply comes out empty.
package splitscan

import (
	"bytes"
	"io"

	"compstor/internal/apps"
)

// Kernel is the chunkable form of a scan program: RunChunk consumes one
// realigned byte range and returns a partial result; Merge combines the
// partials in chunk order, writing the program's final output. Merge's
// error is the program's final exit condition (grep's no-match exit 1
// lives there, for instance).
type Kernel interface {
	RunChunk(ctx *apps.Context, r io.Reader, chunk int) (any, error)
	Merge(ctx *apps.Context, parts []any) error
}

// Plan is one splittable invocation: the single input file and the kernel
// that scans it.
type Plan struct {
	File   string
	Kernel Kernel
}

// Splitter is implemented by programs that expose a chunkable form. A
// (Plan, false) return means this particular argv is not splittable
// (multiple files, stdin, order-dependent flags...) and the executor
// falls back to the serial path.
type Splitter interface {
	apps.Program
	SplitPlan(args []string) (Plan, bool)
}

// Pos returns the absolute file offset at which a chunk starting at the
// nominal cut start must begin reading: one byte early, so the worker can
// observe the newline that terminates the previous chunk's last line even
// when that newline sits exactly on the cut.
func Pos(start int64) int64 {
	if start <= 0 {
		return 0
	}
	return start - 1
}

// Cuts places n+1 nominal chunk boundaries over a file of size bytes:
// cuts[0] = 0, cuts[n] = size, interior cuts at even strides snapped to
// the nearest extent-run boundary within half a stride (so chunks follow
// media contiguity and per-chunk demand reads land on different channel
// groups), else to the nearest page boundary. runStarts are the byte
// offsets where a new extent run begins (sorted, excluding 0). Collapsed
// cuts are dropped, so fewer than n chunks may come back; the result is
// always strictly increasing.
func Cuts(size int64, pageSize int, runStarts []int64, n int) []int64 {
	if size <= 0 {
		return []int64{0, 0}
	}
	if n < 1 {
		n = 1
	}
	if int64(n) > size {
		n = int(size)
	}
	cuts := make([]int64, 1, n+1)
	stride := size / int64(n)
	for i := 1; i < n; i++ {
		c := snap(size*int64(i)/int64(n), stride, pageSize, runStarts)
		if c <= cuts[len(cuts)-1] || c >= size {
			continue
		}
		cuts = append(cuts, c)
	}
	return append(cuts, size)
}

// snap moves a nominal cut to the nearest extent-run boundary if one lies
// within half a stride, otherwise to the nearest page boundary.
func snap(c, stride int64, pageSize int, runStarts []int64) int64 {
	best := int64(-1)
	bestDist := stride/2 + 1
	// runStarts is sorted; a linear scan is fine (extent lists are short).
	for _, r := range runStarts {
		d := r - c
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = r, d
		}
		if r > c+stride/2 {
			break
		}
	}
	if best >= 0 {
		return best
	}
	ps := int64(pageSize)
	if ps <= 0 {
		return c
	}
	return (c + ps/2) / ps * ps
}

// Reader delivers exactly the realigned chunk [start, end) of a file of
// the given size. The underlying reader must be positioned at Pos(start)
// and is read in apps.BlockSize blocks regardless of the caller's buffer
// size, so chunk workers issue the same large device reads as serial
// kernels. The reader stops consuming the underlying stream shortly after
// the chunk's terminating newline — the deliberate read past the nominal
// end that finishes the straddling line.
//
// A chunk worker holds one pooled block, not two: a Read into a whole block
// (wc, cksum) fills the caller's buffer straight from the source, and a
// shorter one (a line scanner, which then needs no block of its own: see
// apps.NewLineScanner) is served from the reader's block.
type Reader struct {
	r    io.Reader
	abs  int64       // absolute offset of buf[0]
	end  int64       // nominal chunk end
	skip bool        // leading partial line still to discard
	stop int64       // absolute delivery stop (realign(end)); -1 = not yet known
	blk  *apps.Block // pooled: taken by the first short Read, returned by release
	buf  []byte      // what the last underlying read left unconsumed
	err  error       // pending underlying error, surfaced once buf drains
}

// NewReader wraps r (positioned at Pos(start)) as the realigned chunk
// [start, end) of a size-byte file.
func NewReader(r io.Reader, start, end, size int64) *Reader {
	end = min(end, size)
	cr := &Reader{r: r, abs: Pos(start), end: end, skip: start > 0, stop: -1}
	if end >= size {
		// The last chunk runs to EOF; its final line needs no terminator.
		cr.stop = size
	}
	return cr
}

// Read implements io.Reader over the realigned chunk.
func (cr *Reader) Read(p []byte) (int, error) {
	inP := false // buf is a slice of p, which must not outlive this call
	for {
		if cr.stop >= 0 && cr.abs >= cr.stop {
			cr.buf = nil
			return 0, io.EOF
		}
		if len(cr.buf) == 0 {
			if cr.err != nil {
				return 0, cr.err
			}
			dst := p
			if inP = len(p) >= apps.BlockSize; !inP {
				if cr.blk == nil {
					cr.blk = apps.GetBlock()
				}
				dst = cr.blk[:]
			}
			if err := cr.fill(dst[:apps.BlockSize]); err != nil {
				return 0, err
			}
		}
		if cr.skip {
			// Discard the leading partial line: everything through the first
			// '\n' at offset ≥ start−1. That newline may lie at or past end−1,
			// in which case it is also the chunk's terminator and the chunk is
			// empty.
			i := bytes.IndexByte(cr.buf, '\n')
			if i < 0 {
				cr.consume(len(cr.buf))
				continue
			}
			cr.consume(i + 1)
			cr.skip = false
			if cr.stop < 0 && cr.abs-1 >= cr.end-1 {
				cr.stop = cr.abs
			}
			continue
		}
		n := copy(p, cr.buf[:cr.deliverable()])
		cr.consume(n)
		if inP {
			cr.buf = nil // the rest lies past the stop
		}
		return n, nil
	}
}

// fill reads the source's next block into dst, retrying empty reads.
func (cr *Reader) fill(dst []byte) error {
	for {
		n, err := cr.r.Read(dst)
		cr.buf, cr.err = dst[:n], err
		if n > 0 || err != nil {
			if n == 0 {
				return err
			}
			return nil
		}
	}
}

// deliverable is how much of buf belongs to the chunk: up to the stop once
// it is known; otherwise all of the blind region before end−1, which is
// ours unconditionally, and from end−1 through the first newline, which
// fixes the stop.
func (cr *Reader) deliverable() int {
	if cr.stop >= 0 {
		return int(min(int64(len(cr.buf)), cr.stop-cr.abs))
	}
	blind := max(cr.end-1-cr.abs, 0)
	if blind >= int64(len(cr.buf)) {
		return len(cr.buf)
	}
	if i := bytes.IndexByte(cr.buf[blind:], '\n'); i >= 0 {
		cr.stop = cr.abs + blind + int64(i) + 1
		return int(blind) + i + 1
	}
	return len(cr.buf)
}

func (cr *Reader) consume(n int) {
	cr.buf = cr.buf[n:]
	cr.abs += int64(n)
}

// release hands the reader's block back to the pool.
func (cr *Reader) release() {
	if cr.blk != nil {
		apps.PutBlock(cr.blk)
		cr.blk, cr.buf = nil, nil
	}
}

// RunChunk opens the plan's file positioned for chunk i of cuts and feeds
// the realigned range to the kernel. cuts must be a Cuts-style boundary
// list (cuts[len-1] = file size).
func RunChunk(ctx *apps.Context, pl Plan, cuts []int64, i int) (any, error) {
	start, end, size := cuts[i], cuts[i+1], cuts[len(cuts)-1]
	f, err := ctx.OpenAt(pl.File, Pos(start))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := NewReader(f, start, end, size)
	defer cr.release()
	return pl.Kernel.RunChunk(ctx, cr, i)
}
