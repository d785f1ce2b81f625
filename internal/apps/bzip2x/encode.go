package bzip2x

import (
	"math/bits"
	"slices"

	"compstor/internal/apps"
	"compstor/internal/apps/huffman"
)

const (
	blockMagicHi = 0x314159 // π
	blockMagicLo = 0x265359
	eosMagicHi   = 0x177245 // √π
	eosMagicLo   = 0x385090
	groupSize    = 50 // symbols per selector group
	maxCodeLen   = 17 // ≤ 20 per the format; 17 keeps package-merge cheap
)

// Options controls the encoder.
type Options struct {
	// Level selects the block size (Level × 100 kB), 1..9. The default (0)
	// means level 1: the rotation sort dominates encode time, and the
	// simulation datasets use files around that scale anyway.
	Level int
}

func (o Options) blockLimit() int { return min(max(o.Level, 1), 9) * 100_000 }

// compressor is the scratch of one Compress call, recycled through
// compressors so that a stream of inputs allocates nothing per call.
type compressor struct {
	w       bitWriter
	rle     []byte          // the block after RLE1
	last    []byte          // its BWT last column
	syms    []uint16        // MTF + RUNA/RUNB symbols
	freq    [maxAlpha]int   // how often each symbol occurs
	weights [maxAlpha]int   // freq plus one
	lengths [maxAlpha]int   // the code lengths
	huff    huffman.Scratch // codeLengths's

	// Rotation sort (bwt.go).
	ext         []byte   // the block and its first seedBytes bytes again
	sa, sa2     []int32  // rotations in their order so far; sa2 is the seed passes' other side
	words, alt  []uint64 // a tied group as (key, rotation) words; alt is its radix passes' other side
	group       []int32  // by rotation: where its group starts in sa
	tied, spare []int32  // lo, hi pairs of the groups still tied, this round's and the next's
}

var compressors = apps.Spares[compressor]{New: func() *compressor { return new(compressor) }}

// sized returns s resized to n, what it held kept up to the shorter length.
// One too short is reallocated at the next power of two, so that inputs of
// varying size reallocate the scratch a few times, not at every larger one.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(make([]T, 0, 1<<bits.Len(uint(n-1))), s...)
	}
	return s[:n]
}

// Compress produces a complete .bz2 stream containing src.
func Compress(src []byte, opt Options) []byte { return compress(src, opt, apps.NewBytes) }

// compress is Compress into a buffer of alloc's.
func compress(src []byte, opt Options, alloc func(n int) []byte) []byte {
	c := compressors.Get()
	defer compressors.Put(c)
	w := &c.w
	w.out = w.out[:0]
	limit := opt.blockLimit()
	w.writeBits('B'<<16|'Z'<<8|'h', 24)
	w.writeBits(uint64('0'+limit/100_000), 8)
	var streamCRC uint32
	for len(src) > 0 {
		// RLE1-encode greedily until the block limit.
		var consumed int
		c.rle, consumed = rle1Encode(c.rle, src, limit)
		crc := blockCRC(src[:consumed])
		streamCRC = combineCRC(streamCRC, crc)
		c.writeBlock(crc)
		src = src[consumed:]
	}
	w.writeBits(eosMagicHi, 24)
	w.writeBits(eosMagicLo, 24)
	w.writeBits(uint64(streamCRC), 32)
	w.flush()
	out := alloc(len(w.out))
	copy(out, w.out)
	return out
}

// rle1Encode applies bzip2's initial run-length encoding (runs of 4-259
// become 4 literals plus a count byte), stopping before the output exceeds
// limit. It returns the encoded bytes, written over dst, and how much input
// was consumed.
func rle1Encode(dst, src []byte, limit int) (out []byte, consumed int) {
	// A run of four grows to five bytes, nothing grows more.
	out = sized(dst, min(limit, len(src)+len(src)/4+5))[:0]
	i := 0
	for i < len(src) && len(out)+5 <= limit {
		b := src[i]
		run := 1
		for i+run < len(src) && run < 259 && src[i+run] == b {
			run++
		}
		if run >= 4 {
			out = append(out, b, b, b, b, byte(run-4))
		} else {
			out = append(out, src[i:i+run]...)
		}
		i += run
	}
	return out, i
}

// writeBlock emits one compressed block for the RLE1 data in c.rle.
func (c *compressor) writeBlock(crc uint32) {
	origPtr := c.bwt(c.rle)
	used := c.mtfRLE2()
	alpha := len(used) + 2
	w := &c.w

	w.writeBits(blockMagicHi, 24)
	w.writeBits(blockMagicLo, 24)
	w.writeBits(uint64(crc), 32)
	w.writeBits(0, 1) // not randomised
	w.writeBits(uint64(origPtr), 24)

	// Symbol map.
	var groups uint16
	var rows [16]uint16
	for _, b := range used {
		groups |= 1 << (15 - b/16)
		rows[b/16] |= 1 << (15 - b%16)
	}
	w.writeBits(uint64(groups), 16)
	for g := 0; g < 16; g++ {
		if groups&(1<<(15-g)) != 0 {
			w.writeBits(uint64(rows[g]), 16)
		}
	}

	// Huffman coding: two identical tables (the format minimum), selector 0
	// everywhere. This sacrifices a little ratio for simplicity; the
	// bitstream stays fully conformant.
	lengths := c.codeLengths(c.freq[:alpha])
	codes := huffman.CanonicalCodes(lengths)
	nGroups := 2
	nSel := (len(c.syms) + groupSize - 1) / groupSize
	w.writeBits(uint64(nGroups), 3)
	w.writeBits(uint64(nSel), 15)
	for i := 0; i < nSel; i++ {
		w.writeBits(0, 1) // selector 0, MTF-coded as a bare terminator bit
	}
	for g := 0; g < nGroups; g++ {
		cur := lengths[0]
		w.writeBits(uint64(cur), 5)
		for _, l := range lengths {
			for cur < l {
				w.writeBits(0b10, 2)
				cur++
			}
			for cur > l {
				w.writeBits(0b11, 2)
				cur--
			}
			w.writeBits(0, 1)
		}
	}
	for _, s := range c.syms {
		w.writeBits(uint64(codes[s]), uint(lengths[s]))
	}
}

// codeLengths gives every symbol of the block alphabet a code length, as
// bzip2 tables must: a symbol weighs one more than its count, so that the
// unused ones (RUNA or RUNB, at most) still get a code, a long one.
func (c *compressor) codeLengths(freq []int) []int {
	weights := c.weights[:len(freq)]
	for i, f := range freq {
		weights[i] = f + 1
	}
	return c.huff.CodeLengths(c.lengths[:0], weights, maxCodeLen)
}

// mtfRLE2 converts the BWT last column c.last into the MTF + RUNA/RUNB
// symbol stream c.syms, terminated by the EOB symbol, counts the symbols in
// c.freq and returns the byte values in use, ascending.
func (c *compressor) mtfRLE2() (used []byte) {
	var present [256]bool
	for _, b := range c.last {
		present[b] = true
	}
	// mtf lists the byte values from most to least recently seen; a value's
	// symbol is its position plus one.
	var mtf [256]byte
	n := 0
	for v, p := range present {
		if p {
			mtf[n] = byte(v)
			n++
		}
	}
	used = slices.Clone(mtf[:n])
	freq := &c.freq
	clear(freq[:])
	syms := sized(c.syms, len(c.last)+1)[:0]
	run := 0
	flushRun := func() {
		// Bijective base-2 with digits RUNA(=1) and RUNB(=2).
		for ; run > 0; run = (run - 1) / 2 {
			d := uint16(1 - run&1) // RUNA is symbol 0, RUNB symbol 1
			syms = append(syms, d)
			freq[d]++
		}
	}
	for _, b := range c.last {
		if mtf[0] == b {
			run++
			continue
		}
		flushRun()
		// Shift the values ahead of b back by one while looking for it.
		pos, carry := 1, mtf[0]
		for ; mtf[pos] != b; pos++ {
			mtf[pos], carry = carry, mtf[pos]
		}
		mtf[pos] = carry
		mtf[0] = b
		syms = append(syms, uint16(pos+1))
		freq[pos+1]++
	}
	flushRun()
	c.syms = append(syms, uint16(n+1)) // EOB
	freq[n+1]++
	return used
}
