// Package gzipx is a from-scratch implementation of DEFLATE (RFC 1951) and
// the gzip framing (RFC 1952): an LZ77 hash-chain compressor with
// length-limited canonical Huffman coding, a full inflater, and the
// gzip/gunzip command-line programs used by the CompStor evaluation.
//
// The inflater reads a byte slice through a 64-bit bit buffer and decodes
// each Huffman code by one lookup in a 10-bit table, codes of 11 to 15 bits
// by a walk over the canonical code's per-length limits. The bit-at-a-time
// decoder it replaced is the tests' oracle.
//
// The bitstreams produced here are verified in the tests against the Go
// standard library's decoder (and vice versa), so the codec is wire-
// compatible with real gzip.
package gzipx

import (
	"encoding/binary"
	"io"
	"math/bits"
)

// bitWriter packs bits LSB-first, as DEFLATE requires, into buf.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint // bits in acc, below 32 between calls
}

// writeBits emits the low `width` bits of v, LSB-first.
func (b *bitWriter) writeBits(v uint32, width uint) {
	b.acc |= uint64(v) << b.n
	b.n += width
	if b.n >= 32 {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(b.acc))
		b.acc >>= 32
		b.n -= 32
	}
}

// align pads to a byte boundary with zero bits.
func (b *bitWriter) align() {
	for ; b.n > 0; b.n -= min(b.n, 8) {
		b.buf = append(b.buf, byte(b.acc))
		b.acc >>= 8
	}
}

// reverseBits reverses the low `width` bits of v: DEFLATE stores Huffman
// codes MSB-first within the LSB-first stream.
func reverseBits(v uint32, width uint) uint32 { return bits.Reverse32(v) >> (32 - width) }

// bitReader takes bits LSB-first from src. The unread bits of acc are its
// low n; whatever lies above them is either zero or a copy of the bits that
// the next refill will put there.
type bitReader struct {
	src []byte
	pos int // next byte of src to load
	acc uint64
	n   uint
}

// refill tops acc up to at least 56 bits, or to all that is left of src.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.src) {
		r.acc |= binary.LittleEndian.Uint64(r.src[r.pos:]) << r.n
		whole := (63 - r.n) >> 3
		r.pos += int(whole)
		r.n += whole * 8
		return
	}
	for ; r.n <= 56 && r.pos < len(r.src); r.pos++ {
		r.acc |= uint64(r.src[r.pos]) << r.n
		r.n += 8
	}
}

// readBits returns the next `width` (0 to 32) bits.
func (r *bitReader) readBits(width uint) (uint32, error) {
	if r.n < width {
		r.refill()
	}
	return r.take(width)
}

// take is readBits for a caller that has refilled acc: if it holds fewer
// than `width` bits, src has no more.
func (r *bitReader) take(width uint) (uint32, error) {
	if r.n < width {
		return 0, io.ErrUnexpectedEOF
	}
	v := uint32(r.acc) & (1<<width - 1)
	r.acc >>= width
	r.n -= width
	return v, nil
}

// alignByte discards the bits left of a partly read byte and gives back the
// whole bytes still in acc, so that src[pos:] is what follows.
func (r *bitReader) alignByte() {
	r.pos -= int(r.n >> 3)
	r.acc, r.n = 0, 0
}

// used is the number of bytes of src read, a partly read one included.
func (r *bitReader) used() int { return r.pos - int(r.n>>3) }
