// Package bzip2x is a from-scratch implementation of the bzip2 format:
// RLE1 run packing, the Burrows-Wheeler transform (cyclic rotations ordered
// by a radix sort on their first bytes, then prefix doubling over the groups
// still tied), move-to-front, RUNA/RUNB zero-run coding, canonical Huffman
// coding, and the exact .bz2 bitstream — plus the bzip2 and bunzip2
// command-line programs of the CompStor evaluation.
//
// The encoder writes one code table per block (twice, the format's minimum
// of two, every selector 0); the decoder reads all that the format allows:
// up to six tables, any selector sequence, concatenated streams.
//
// Compressed output is verified in the tests against the Go standard
// library's compress/bzip2 reader, so the encoder is wire-compatible with
// real bunzip2.
package bzip2x

import (
	"encoding/binary"
	"io"
)

// bzip2 bitstreams are MSB-first.

// bitWriter appends bits to out through a 64-bit accumulator.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint // pending bits in the low end of acc, below 32 between calls
}

// writeBits emits the `width` (at most 32) bits of v, which must have no
// bit set above them, most significant first.
func (w *bitWriter) writeBits(v uint64, width uint) {
	w.acc = w.acc<<width | v
	w.n += width
	if w.n >= 32 {
		w.n -= 32
		w.out = binary.BigEndian.AppendUint32(w.out, uint32(w.acc>>w.n))
	}
}

// flush pads the final byte with zero bits.
func (w *bitWriter) flush() {
	for ; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc>>(w.n-8)))
	}
	if w.n > 0 {
		w.out = append(w.out, byte(w.acc<<(8-w.n)))
	}
	w.acc, w.n = 0, 0
}

// bitReader takes bits from src. The unread bits of acc are its top n;
// whatever lies below them is either zero or a copy of the bits that the
// next refill will put there.
type bitReader struct {
	src []byte
	pos int // next byte of src to load
	acc uint64
	n   uint
}

// refill tops acc up to at least 56 bits, or to all that is left of src.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.src) {
		r.acc |= binary.BigEndian.Uint64(r.src[r.pos:]) >> r.n
		whole := (63 - r.n) >> 3
		r.pos += int(whole)
		r.n += whole * 8
		return
	}
	for ; r.n <= 56 && r.pos < len(r.src); r.pos++ {
		r.acc |= uint64(r.src[r.pos]) << (56 - r.n)
		r.n += 8
	}
}

// readBits returns the next `width` (1 to 56) bits.
func (r *bitReader) readBits(width uint) (uint64, error) {
	if r.n < width {
		if r.refill(); r.n < width {
			return 0, io.ErrUnexpectedEOF
		}
	}
	v := r.acc >> (64 - width)
	r.acc <<= width
	r.n -= width
	return v, nil
}

// alignByte discards the bits left of a partly read byte.
func (r *bitReader) alignByte() {
	drop := r.n % 8
	r.acc <<= drop
	r.n -= drop
}

// more reports whether at least one more bit is available.
func (r *bitReader) more() bool {
	return r.n > 0 || r.pos < len(r.src)
}
