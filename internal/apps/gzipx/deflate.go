package gzipx

import (
	"encoding/binary"
	"math"
	"math/bits"

	"compstor/internal/apps"
	"compstor/internal/apps/huffman"
)

// DEFLATE symbol tables (RFC 1951 §3.2.5).

var lengthBase = [29]int{
	3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
	35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
}

var lengthExtra = [29]uint{
	0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
	3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
}

var distBase = [30]int{
	1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
	257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
}

var distExtra = [30]uint{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
	7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

// clOrder is the storage order of code-length-code lengths.
var clOrder = [19]int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// lengthSym[l] is the litlen symbol of match length l (3..258). distSym
// holds the distance symbols the way zlib does: entry d-1 for distances up
// to 256 and, because every longer distance code spans a multiple of 128,
// entry 256+(d-1)>>7 beyond.
var (
	lengthSym [maxMatch + 1]uint16
	distSym   [512]uint8
)

func init() {
	for l, i := minMatch, 0; l <= maxMatch; l++ {
		if i+1 < len(lengthBase) && l == lengthBase[i+1] {
			i++
		}
		lengthSym[l] = uint16(257 + i)
	}
	for d, i := 1, 0; d <= windowSize; d++ {
		if i+1 < len(distBase) && d == distBase[i+1] {
			i++
		}
		if d <= 256 {
			distSym[d-1] = uint8(i)
		} else {
			distSym[256+(d-1)>>7] = uint8(i)
		}
	}
}

// distCode maps a distance (1..32768) to its distance symbol.
func distCode(d int) int {
	if d <= 256 {
		return int(distSym[d-1])
	}
	return int(distSym[256+(d-1)>>7])
}

// token encodes a literal (high bit clear) or a match (length<<16 | dist).
type token uint32

func litToken(b byte) token         { return token(b) }
func matchToken(l, d int) token     { return token(1<<31 | uint32(l)<<16 | uint32(d)) }
func (t token) isMatch() bool       { return t&(1<<31) != 0 }
func (t token) lit() byte           { return byte(t) }
func (t token) lenDist() (int, int) { return int(t >> 16 & 0x7FFF), int(t & 0xFFFF) }

const (
	maxMatch   = 258
	minMatch   = 3
	windowSize = 32 * 1024
	hashBits   = 15
	maxChain   = 64
	blockSize  = 1 << 16 // tokens per emitted block
)

// compressor is the scratch of one deflate call, recycled through
// compressors so that a stream of inputs allocates nothing per call.
type compressor struct {
	src []byte
	// head and prev hold positions biased by base, which every call moves
	// past all it stored: what an earlier input left behind then reads as
	// older than the window, so head is cleared only when base would
	// overflow. prev is a ring over the window, as in zlib: a prev entry is
	// written before any chain reaches it, and overwritten only once its
	// position has left the window.
	head   []int32
	prev   [windowSize]int32
	base   int32
	tokens []token
	bw     bitWriter

	litFreq  [286]int
	distFreq [30]int
	clFreq   [19]int
	litLen   [286]int
	distLen  [30]int
	clLen    [19]int
	huff     huffman.Scratch
	seq      []int
	cl       []clToken
}

var compressors = apps.Spares[compressor]{New: func() *compressor {
	return &compressor{head: make([]int32, 1<<hashBits), base: 1}
}}

// deflate compresses src as a raw DEFLATE stream and returns it, in c's
// scratch.
func (c *compressor) deflate(src []byte) []byte {
	if int64(c.base)+int64(len(src)) >= math.MaxInt32 {
		clear(c.head)
		c.base = 1
	}
	c.src = src
	c.tokens = c.tokens[:0]
	c.bw = bitWriter{buf: c.bw.buf[:0]}
	c.run()
	c.bw.align()
	c.base += int32(len(src)) + 1
	c.src = nil
	return c.bw.buf
}

func hash3(b []byte) uint32 {
	v := uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])
	return (v * 0x9E3779B1) >> (32 - hashBits)
}

func (c *compressor) insert(pos int) {
	if pos+minMatch > len(c.src) {
		return
	}
	h := hash3(c.src[pos:])
	c.prev[pos&(windowSize-1)] = c.head[h]
	c.head[h] = c.base + int32(pos)
}

// findMatch searches the hash chain for the longest match at pos.
func (c *compressor) findMatch(pos int) (length, dist int) {
	if pos+minMatch > len(c.src) {
		return 0, 0
	}
	src, prev, base := c.src, &c.prev, c.base // locals: the loop below is the encoder's hot spot
	limit := base + int32(max(pos-windowSize, 0))
	maxLen := min(len(src)-pos, maxMatch)
	want := src[pos : pos+maxLen]
	cand := c.head[hash3(want)]
	best := 0
	for chain := maxChain; cand >= limit && chain > 0; chain-- {
		cp := int(cand - base)
		// Quick reject: a longer match must improve on the byte at `best`.
		if best == 0 || src[cp+best] == want[best] {
			if l := matchLen(src[cp:], want); l > best {
				best = l
				dist = pos - cp
				if l >= maxLen {
					break
				}
			}
		}
		cand = prev[cp&(windowSize-1)]
	}
	if best < minMatch {
		return 0, 0
	}
	return best, dist
}

// matchLen returns how many leading bytes of b (no longer than a) equal
// a's, comparing eight at a time.
func matchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(b); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// run tokenizes the source and emits blocks.
func (c *compressor) run() {
	pos := 0
	for pos < len(c.src) {
		l, d := c.findMatch(pos)
		if l >= minMatch {
			c.tokens = append(c.tokens, matchToken(l, d))
			for i := 0; i < l; i++ {
				c.insert(pos + i)
			}
			pos += l
		} else {
			c.tokens = append(c.tokens, litToken(c.src[pos]))
			c.insert(pos)
			pos++
		}
		// Flush full blocks, but keep at least one token for the final
		// block so its Huffman alphabets are never degenerate.
		if len(c.tokens) >= blockSize && pos < len(c.src) {
			c.writeBlock(false)
			c.tokens = c.tokens[:0]
		}
	}
	if len(c.tokens) > 0 {
		c.writeBlock(true)
	} else {
		writeStoredEmpty(&c.bw) // empty input: final stored block of length 0
	}
}

// writeStoredEmpty emits a final zero-length stored block (the simplest
// valid encoding of an empty stream).
func writeStoredEmpty(bw *bitWriter) {
	bw.writeBits(1, 1) // BFINAL
	bw.writeBits(0, 2) // stored
	bw.align()
	bw.writeBits(0, 16)
	bw.writeBits(0xFFFF, 16)
}

// clToken is one symbol of the run-length-coded code-length sequence.
type clToken struct {
	sym   int
	extra uint32
}

// bitReversed turns canonical codes into the order writeBits emits them in.
func bitReversed(codes []uint32, lengths []int) []uint32 {
	for i, l := range lengths {
		codes[i] = reverseBits(codes[i], uint(l))
	}
	return codes
}

// writeBlock emits one dynamic-Huffman block for the pending tokens.
func (c *compressor) writeBlock(final bool) {
	bw, tokens := &c.bw, c.tokens
	litFreq, distFreq := c.litFreq[:], c.distFreq[:]
	clear(litFreq)
	clear(distFreq)
	for _, t := range tokens {
		if t.isMatch() {
			l, d := t.lenDist()
			litFreq[lengthSym[l]]++
			distFreq[distCode(d)]++
		} else {
			litFreq[t.lit()]++
		}
	}
	litFreq[256]++ // end of block
	litLen := c.huff.CodeLengths(c.litLen[:0], litFreq, 15)
	distLen := c.huff.CodeLengths(c.distLen[:0], distFreq, 15)
	// All-literal blocks still must declare a distance alphabet; a single
	// one-bit code is the conventional (and spec-sanctioned) encoding.
	empty := true
	for _, l := range distLen {
		if l != 0 {
			empty = false
			break
		}
	}
	if empty {
		distLen[0] = 1
	}
	litCodes := bitReversed(huffman.CanonicalCodes(litLen), litLen)
	distCodes := bitReversed(huffman.CanonicalCodes(distLen), distLen)

	// Trim trailing zero lengths but keep the spec minimums.
	hlit := 286
	for hlit > 257 && litLen[hlit-1] == 0 {
		hlit--
	}
	hdist := 30
	for hdist > 1 && distLen[hdist-1] == 0 {
		hdist--
	}

	// RLE-encode the combined length sequence with symbols 16/17/18.
	seq := append(append(c.seq[:0], litLen[:hlit]...), distLen[:hdist]...)
	cl := c.cl[:0]
	for i := 0; i < len(seq); {
		v := seq[i]
		run := 1
		for i+run < len(seq) && seq[i+run] == v {
			run++
		}
		switch {
		case v == 0 && run >= 3:
			for run >= 3 {
				n := min(run, 138)
				if n <= 10 {
					cl = append(cl, clToken{17, uint32(n - 3)})
				} else {
					cl = append(cl, clToken{18, uint32(n - 11)})
				}
				run -= n
				i += n
			}
		case v != 0 && run >= 4:
			cl = append(cl, clToken{v, 0})
			i++
			run--
			for run >= 3 {
				n := min(run, 6)
				cl = append(cl, clToken{16, uint32(n - 3)})
				run -= n
				i += n
			}
		}
		// What a repeat code cannot take — the whole run, if it is too
		// short for one — goes out as plain lengths.
		for ; run > 0; run-- {
			cl = append(cl, clToken{v, 0})
			i++
		}
	}

	c.seq, c.cl = seq, cl
	clFreq := c.clFreq[:]
	clear(clFreq)
	for _, t := range cl {
		clFreq[t.sym]++
	}
	clLen := c.huff.CodeLengths(c.clLen[:0], clFreq, 7)
	clCodes := bitReversed(huffman.CanonicalCodes(clLen), clLen)
	hclen := 19
	for hclen > 4 && clLen[clOrder[hclen-1]] == 0 {
		hclen--
	}

	// Block header.
	if final {
		bw.writeBits(1, 1)
	} else {
		bw.writeBits(0, 1)
	}
	bw.writeBits(2, 2) // dynamic Huffman
	bw.writeBits(uint32(hlit-257), 5)
	bw.writeBits(uint32(hdist-1), 5)
	bw.writeBits(uint32(hclen-4), 4)
	for i := 0; i < hclen; i++ {
		bw.writeBits(uint32(clLen[clOrder[i]]), 3)
	}
	for _, t := range cl {
		bw.writeBits(clCodes[t.sym], uint(clLen[t.sym]))
		switch t.sym {
		case 16:
			bw.writeBits(t.extra, 2)
		case 17:
			bw.writeBits(t.extra, 3)
		case 18:
			bw.writeBits(t.extra, 7)
		}
	}

	// Token payload.
	for _, t := range tokens {
		if t.isMatch() {
			l, d := t.lenDist()
			lc := int(lengthSym[l])
			bw.writeBits(litCodes[lc], uint(litLen[lc]))
			if eb := lengthExtra[lc-257]; eb > 0 {
				bw.writeBits(uint32(l-lengthBase[lc-257]), eb)
			}
			dc := distCode(d)
			bw.writeBits(distCodes[dc], uint(distLen[dc]))
			if eb := distExtra[dc]; eb > 0 {
				bw.writeBits(uint32(d-distBase[dc]), eb)
			}
		} else {
			b := t.lit()
			bw.writeBits(litCodes[b], uint(litLen[b]))
		}
	}
	bw.writeBits(litCodes[256], uint(litLen[256]))
}
