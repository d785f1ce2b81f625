// Package gzipx is a from-scratch implementation of DEFLATE (RFC 1951) and
// the gzip framing (RFC 1952): an LZ77 hash-chain compressor with
// length-limited canonical Huffman coding, a full inflater, and the
// gzip/gunzip command-line programs used by the CompStor evaluation.
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

// bitWriter packs bits LSB-first, as DEFLATE requires, into a buffer that
// flush hands to w in one Write.
type bitWriter struct {
	w   io.Writer
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

// flush aligns and writes everything buffered.
func (b *bitWriter) flush() error {
	b.align()
	_, err := b.w.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

// reverseBits reverses the low `width` bits of v: DEFLATE stores Huffman
// codes MSB-first within the LSB-first stream.
func reverseBits(v uint32, width uint) uint32 { return bits.Reverse32(v) >> (32 - width) }

// bitReader consumes bits LSB-first from a byte stream.
type bitReader struct {
	r   io.ByteReader
	acc uint32
	n   uint
}

func newBitReader(r io.ByteReader) *bitReader { return &bitReader{r: r} }

// readBits returns the next `width` bits, LSB-first.
func (b *bitReader) readBits(width uint) (uint32, error) {
	for b.n < width {
		c, err := b.r.ReadByte()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		b.acc |= uint32(c) << b.n
		b.n += 8
	}
	v := b.acc & (1<<width - 1)
	b.acc >>= width
	b.n -= width
	return v, nil
}

// alignByte discards bits up to the next byte boundary.
func (b *bitReader) alignByte() {
	b.acc = 0
	b.n = 0
}
