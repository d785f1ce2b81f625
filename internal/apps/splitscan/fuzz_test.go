package splitscan

import (
	"bytes"
	"io"
	"testing"

	"compstor/internal/apps"
)

// FuzzSplitRealign is the satellite's property test: for arbitrary byte
// content (no trailing newline, newline runs, lines longer than a chunk,
// binary bytes) and any chunk count / cut placement, the realigned splits
// must cover every line exactly once — the chunks reassemble the file
// byte-for-byte and every non-empty chunk begins at a line start.
//
// cutSeed drives an LCG that perturbs the evenly-spaced nominal cuts, so
// the property is checked for arbitrary cut positions, not just the ones
// Cuts would pick; nchunks exercises counts from 1 far past the core count.
// Every chunk is read twice: by io.ReadAll, whose short reads the reader
// serves from its own block, and a whole block at a time as wc and cksum
// read, which it fills straight from the source.
func FuzzSplitRealign(f *testing.F) {
	// Regression corpus: page-boundary and extent-run-boundary shapes (the
	// cut cases the production Cuts placement actually produces), plus the
	// degenerate line shapes from the issue.
	page := bytes.Repeat([]byte("0123456789abcde\n"), 512) // '\n' at every 16th byte; 4096 | len
	f.Add(page, uint8(4), uint64(0))                       // cuts land exactly on page boundaries
	f.Add(page[:len(page)-1], uint8(4), uint64(1))         // same, no trailing newline
	f.Add([]byte("one line\n"), uint8(8), uint64(2))       // more chunks than lines
	f.Add([]byte("\n\n\n\n\n"), uint8(3), uint64(3))       // newline runs
	f.Add([]byte("no newline at all"), uint8(4), uint64(4))
	f.Add(bytes.Repeat([]byte{'x'}, 9000), uint8(4), uint64(5)) // one unterminated 9 KiB line
	// Extent-run boundary: a cut snapped off the even stride (as a run
	// boundary at 5000 would snap it) — modelled by the LCG perturbation.
	f.Add(bytes.Repeat([]byte("line of text here\n"), 600), uint8(4), uint64(5000))
	f.Add(bytes.Repeat([]byte("0123456789abcde\n"), 20000), uint8(1), uint64(6)) // chunks of several blocks

	f.Fuzz(func(t *testing.T, data []byte, nchunks uint8, cutSeed uint64) {
		size := int64(len(data))
		n := int(nchunks%16) + 1
		if int64(n) > size {
			n = int(size)
		}
		if n < 1 {
			n = 1
		}
		// Arbitrary cuts: even stride perturbed by an LCG, clamped to
		// (prev, size) so the list stays strictly increasing.
		cuts := []int64{0}
		lcg := cutSeed
		for i := 1; i < n; i++ {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			c := size * int64(i) / int64(n)
			c += int64(lcg%64) - 32
			if c <= cuts[len(cuts)-1] {
				continue
			}
			if c >= size {
				break
			}
			cuts = append(cuts, c)
		}
		cuts = append(cuts, size)

		var cat []byte
		for i := 0; i+1 < len(cuts); i++ {
			start, end := cuts[i], cuts[i+1]
			r := NewReader(bytes.NewReader(data[Pos(start):]), start, end, size)
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatalf("chunk %d [%d,%d): %v", i, start, end, err)
			}
			if blocks := readBlocks(t, NewReader(bytes.NewReader(data[Pos(start):]), start, end, size)); !bytes.Equal(blocks, got) {
				t.Fatalf("chunk %d [%d,%d): %d bytes read a block at a time, %d by io.ReadAll", i, start, end, len(blocks), len(got))
			}
			if len(got) > 0 {
				if at := int64(len(cat)); at != 0 && data[at-1] != '\n' {
					t.Fatalf("chunk %d [%d,%d) starts mid-line at offset %d", i, start, end, at)
				}
			}
			cat = append(cat, got...)
		}
		if !bytes.Equal(cat, data) {
			t.Fatalf("cuts %v: chunks reassemble %d bytes, file has %d", cuts, len(cat), len(data))
		}
	})
}

// readBlocks reads r to its end through one whole-block buffer.
func readBlocks(t *testing.T, r io.Reader) []byte {
	buf := make([]byte, apps.BlockSize)
	var out []byte
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
