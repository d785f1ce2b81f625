package gzipx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"compstor/internal/apps"
)

// The decoder below is puff's, as this package ran it before the table-driven
// inflater: one bit per Huffman step, one ReadByte per input byte, one append
// per matched byte. It is the oracle the new decoder is compared against;
// only its names changed.

// refBitReader consumes bits LSB-first from a byte stream.
type refBitReader struct {
	r   io.ByteReader
	acc uint32
	n   uint
}

func newRefBitReader(r io.ByteReader) *refBitReader { return &refBitReader{r: r} }

// readBits returns the next `width` bits, LSB-first.
func (b *refBitReader) readBits(width uint) (uint32, error) {
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
func (b *refBitReader) alignByte() {
	b.acc = 0
	b.n = 0
}

// refHDecoder decodes canonical Huffman codes bit-by-bit using the counts/
// symbols construction (as in Mark Adler's puff).
type refHDecoder struct {
	count []int // number of codes of each length
	sym   []int // symbols ordered by code
}

// newRefHDecoder builds a decoder from code lengths. It returns nil if the
// lengths are not a valid (complete or single-code) Huffman set.
func newRefHDecoder(lengths []int) *refHDecoder {
	maxLen := 0
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	d := &refHDecoder{count: make([]int, maxLen+1)}
	n := 0
	for _, l := range lengths {
		if l > 0 {
			d.count[l]++
			n++
		}
	}
	if n == 0 {
		return nil
	}
	// Check for over-subscription.
	left := 1
	for l := 1; l <= maxLen; l++ {
		left <<= 1
		left -= d.count[l]
		if left < 0 {
			return nil
		}
	}
	offs := make([]int, maxLen+2)
	for l := 1; l <= maxLen; l++ {
		offs[l+1] = offs[l] + d.count[l]
	}
	d.sym = make([]int, n)
	for i, l := range lengths {
		if l > 0 {
			d.sym[offs[l]] = i
			offs[l]++
		}
	}
	return d
}

// decode reads one symbol from the bit reader.
func (d *refHDecoder) decode(br *refBitReader) (int, error) {
	var code, first, index int
	for l := 1; l < len(d.count); l++ {
		bit, err := br.readBits(1)
		if err != nil {
			return 0, err
		}
		code |= int(bit)
		cnt := d.count[l]
		if code-first < cnt {
			return d.sym[index+code-first], nil
		}
		index += cnt
		first = (first + cnt) << 1
		code <<= 1
	}
	return 0, errCorrupt("invalid Huffman code")
}

// refFixedLit and refFixedDist are the fixed-Huffman code lengths (RFC 1951
// §3.2.6), built lazily.
var refFixedLit, refFixedDist *refHDecoder

func init() {
	litLen := make([]int, 288)
	for i := 0; i < 144; i++ {
		litLen[i] = 8
	}
	for i := 144; i < 256; i++ {
		litLen[i] = 9
	}
	for i := 256; i < 280; i++ {
		litLen[i] = 7
	}
	for i := 280; i < 288; i++ {
		litLen[i] = 8
	}
	refFixedLit = newRefHDecoder(litLen)
	distLen := make([]int, 30)
	for i := range distLen {
		distLen[i] = 5
	}
	refFixedDist = newRefHDecoder(distLen)
}

// refInflate appends the DEFLATE stream read from br to out. Matches reach no
// further back than where the stream's output starts, and the whole of out
// stays within apps.MaxOutput.
func refInflate(br io.ByteReader, out []byte) ([]byte, error) {
	d := &refInflater{br: newRefBitReader(br), raw: br, out: out, start: len(out)}
	if err := d.run(); err != nil {
		return nil, err
	}
	return d.out, nil
}

type refInflater struct {
	br    *refBitReader
	raw   io.ByteReader
	out   []byte
	start int // where this stream's output begins in out
}

// room fails once n more bytes would take the output past apps.MaxOutput.
func (d *refInflater) room(n int) error {
	if len(d.out)+n > apps.MaxOutput {
		return apps.ErrOutputLimit
	}
	return nil
}

func (d *refInflater) run() error {
	for {
		final, err := d.br.readBits(1)
		if err != nil {
			return err
		}
		btype, err := d.br.readBits(2)
		if err != nil {
			return err
		}
		switch btype {
		case 0:
			err = d.stored()
		case 1:
			err = d.block(refFixedLit, refFixedDist)
		case 2:
			var lit, dist *refHDecoder
			lit, dist, err = d.readDynamicHeader()
			if err == nil {
				err = d.block(lit, dist)
			}
		default:
			err = errCorrupt("reserved block type")
		}
		if err != nil {
			return err
		}
		if final == 1 {
			return nil
		}
	}
}

func (d *refInflater) stored() error {
	d.br.alignByte()
	ln, err := d.readLE16()
	if err != nil {
		return err
	}
	nln, err := d.readLE16()
	if err != nil {
		return err
	}
	if ln != ^nln&0xFFFF {
		return errCorrupt("stored block length check")
	}
	if err := d.room(ln); err != nil {
		return err
	}
	for i := 0; i < ln; i++ {
		c, err := d.raw.ReadByte()
		if err != nil {
			return io.ErrUnexpectedEOF
		}
		d.out = append(d.out, c)
	}
	return nil
}

func (d *refInflater) readLE16() (int, error) {
	lo, err := d.raw.ReadByte()
	if err != nil {
		return 0, io.ErrUnexpectedEOF
	}
	hi, err := d.raw.ReadByte()
	if err != nil {
		return 0, io.ErrUnexpectedEOF
	}
	return int(lo) | int(hi)<<8, nil
}

func (d *refInflater) readDynamicHeader() (*refHDecoder, *refHDecoder, error) {
	hlit, err := d.br.readBits(5)
	if err != nil {
		return nil, nil, err
	}
	hdist, err := d.br.readBits(5)
	if err != nil {
		return nil, nil, err
	}
	hclen, err := d.br.readBits(4)
	if err != nil {
		return nil, nil, err
	}
	nLit, nDist, nCl := int(hlit)+257, int(hdist)+1, int(hclen)+4
	clLen := make([]int, 19)
	for i := 0; i < nCl; i++ {
		v, err := d.br.readBits(3)
		if err != nil {
			return nil, nil, err
		}
		clLen[clOrder[i]] = int(v)
	}
	clDec := newRefHDecoder(clLen)
	if clDec == nil {
		return nil, nil, errCorrupt("bad code-length code")
	}
	lens := make([]int, nLit+nDist)
	for i := 0; i < len(lens); {
		sym, err := clDec.decode(d.br)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case sym < 16:
			lens[i] = sym
			i++
		case sym == 16:
			if i == 0 {
				return nil, nil, errCorrupt("repeat with no previous length")
			}
			n, err := d.br.readBits(2)
			if err != nil {
				return nil, nil, err
			}
			prev := lens[i-1]
			for k := 0; k < int(n)+3; k++ {
				if i >= len(lens) {
					return nil, nil, errCorrupt("repeat overflows alphabet")
				}
				lens[i] = prev
				i++
			}
		case sym == 17:
			n, err := d.br.readBits(3)
			if err != nil {
				return nil, nil, err
			}
			i += int(n) + 3
		default: // 18
			n, err := d.br.readBits(7)
			if err != nil {
				return nil, nil, err
			}
			i += int(n) + 11
		}
		if i > len(lens) {
			return nil, nil, errCorrupt("zero-run overflows alphabet")
		}
	}
	lit := newRefHDecoder(lens[:nLit])
	if lit == nil {
		return nil, nil, errCorrupt("bad literal/length code")
	}
	dist := newRefHDecoder(lens[nLit:])
	// dist may be nil for all-literal blocks; block() guards its use.
	return lit, dist, nil
}

func (d *refInflater) block(lit, dist *refHDecoder) error {
	for {
		sym, err := lit.decode(d.br)
		if err != nil {
			return err
		}
		switch {
		case sym < 256:
			if err := d.room(1); err != nil {
				return err
			}
			d.out = append(d.out, byte(sym))
		case sym == 256:
			return nil
		default:
			if sym > 285 {
				return errCorrupt(fmt.Sprintf("length symbol %d", sym))
			}
			li := sym - 257
			length := lengthBase[li]
			if eb := lengthExtra[li]; eb > 0 {
				v, err := d.br.readBits(eb)
				if err != nil {
					return err
				}
				length += int(v)
			}
			if dist == nil {
				return errCorrupt("match with empty distance alphabet")
			}
			dsym, err := dist.decode(d.br)
			if err != nil {
				return err
			}
			if dsym > 29 {
				return errCorrupt(fmt.Sprintf("distance symbol %d", dsym))
			}
			distance := distBase[dsym]
			if eb := distExtra[dsym]; eb > 0 {
				v, err := d.br.readBits(eb)
				if err != nil {
					return err
				}
				distance += int(v)
			}
			if distance > len(d.out)-d.start {
				return errCorrupt("distance beyond output start")
			}
			if err := d.room(length); err != nil {
				return err
			}
			// Copy byte-by-byte: overlapping copies are the point of LZ77.
			from := len(d.out) - distance
			for i := 0; i < length; i++ {
				d.out = append(d.out, d.out[from+i])
			}
		}
	}
}

// refDecompress and refSkipHeader are Decompress as it ran over refInflate:
// the bytes.Reader the decoder reads from is where each member's trailer is
// read from next.
func refDecompress(src []byte) ([]byte, error) {
	r := bytes.NewReader(src)
	var out []byte
	if n := len(src); n >= 4 {
		out = make([]byte, 0, min(int(binary.LittleEndian.Uint32(src[n-4:])), 1032*n, apps.MaxOutput))
	}
	for member := 0; member == 0 || r.Len() > 0; member++ {
		if err := refSkipHeader(r); err != nil {
			return nil, err
		}
		start := len(out)
		var err error
		if out, err = refInflate(r, out); err != nil {
			return nil, err
		}
		var tail [8]byte
		if _, err := io.ReadFull(r, tail[:]); err != nil {
			return nil, errCorrupt("missing gzip trailer")
		}
		if crc32.ChecksumIEEE(out[start:]) != binary.LittleEndian.Uint32(tail[0:]) {
			return nil, errCorrupt("gzip CRC mismatch")
		}
		if uint32(len(out)-start) != binary.LittleEndian.Uint32(tail[4:]) {
			return nil, errCorrupt("gzip length mismatch")
		}
	}
	return out, nil
}

func refSkipHeader(r *bytes.Reader) error {
	var hdr [10]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return errCorrupt("short gzip header")
	}
	if hdr[0] != gzipID1 || hdr[1] != gzipID2 {
		return errCorrupt("bad gzip magic")
	}
	if hdr[2] != gzipMethod {
		return errCorrupt("unknown gzip method")
	}
	flg := hdr[3]
	if flg&flagFEXTRA != 0 {
		var ln [2]byte
		if _, err := io.ReadFull(r, ln[:]); err != nil {
			return errCorrupt("short FEXTRA")
		}
		n := int(binary.LittleEndian.Uint16(ln[:]))
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return errCorrupt("short FEXTRA body")
		}
	}
	for _, f := range []byte{flagFNAME, flagFCOMMENT} {
		if flg&f != 0 {
			for {
				c, err := r.ReadByte()
				if err != nil {
					return errCorrupt("unterminated header string")
				}
				if c == 0 {
					break
				}
			}
		}
	}
	if flg&flagFHCRC != 0 {
		if _, err := io.CopyN(io.Discard, r, 2); err != nil {
			return errCorrupt("short FHCRC")
		}
	}
	return nil
}
