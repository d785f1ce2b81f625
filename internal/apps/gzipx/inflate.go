package gzipx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"compstor/internal/apps"
)

// corruptError reports a malformed DEFLATE stream.
type corruptError string

func (e corruptError) Error() string { return "gzipx: corrupt stream: " + string(e) }

func errCorrupt(msg string) error { return corruptError(msg) }

const (
	maxCodeLen = 15 // DEFLATE's longest code
	fastBits   = 10 // the width of a huffTable's direct lookup
	fastMask   = 1<<fastBits - 1
)

// huffTable decodes one canonical prefix code from the next maxCodeLen bits
// of the stream.
type huffTable struct {
	// fast is indexed by the next fastBits bits of the stream: symbol<<4 |
	// length when they begin with a code that short, 0 otherwise.
	fast [1 << fastBits]uint16
	// For longer codes, with v the next maxCodeLen bits in code order (the
	// stream stores codes most significant bit first): limit[l] is the least
	// v above every code of at most l bits, and the code of l bits with value
	// c stands for perm[offset[l]+c].
	limit  [maxCodeLen + 1]uint32
	offset [maxCodeLen + 1]int32
	perm   [288]uint16
}

// init builds the table from one code length per symbol, 0 for a symbol
// that has no code. It reports false for a set with no code, or one that
// claims more codes than exist. Codes are assigned in order of length, then
// symbol, from zero up; a set that leaves codes unassigned is accepted, and
// reading an unassigned code is an error.
func (t *huffTable) init(lengths []uint8) bool {
	var count [maxCodeLen + 1]int32
	for _, l := range lengths {
		count[l]++
	}
	if int(count[0]) == len(lengths) {
		return false
	}
	var next [maxCodeLen + 1]uint32 // the first code of each length, then the next free one
	code, index := uint32(0), int32(0)
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = code
		t.offset[l] = index - int32(code)
		code += uint32(count[l])
		if code > 1<<l {
			return false
		}
		t.limit[l] = code << (maxCodeLen - l)
		index += count[l]
		code <<= 1
	}
	clear(t.fast[:])
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		c := next[l]
		next[l]++
		t.perm[t.offset[l]+int32(c)] = uint16(sym)
		if l <= fastBits {
			e := uint16(sym)<<4 | uint16(l)
			for i := reverseBits(c, uint(l)); i < 1<<fastBits; i += 1 << l {
				t.fast[i] = e
			}
		}
	}
	return true
}

// decode reads one symbol.
func (t *huffTable) decode(br *bitReader) (int, error) {
	if br.n < maxCodeLen {
		br.refill()
	}
	e := t.fast[br.acc&fastMask]
	if e == 0 {
		var err error
		if e, err = t.long(br.acc); err != nil {
			return 0, err
		}
	}
	if _, err := br.take(uint(e & 15)); err != nil {
		return 0, err
	}
	return int(e >> 4), nil
}

// long returns symbol<<4 | length for a code that acc begins with and fast
// has no entry for: one longer than fastBits, or an unassigned one. Past the
// end of src the bits read as zero; a code that needs them is longer than
// what is left, and taking its bits fails.
func (t *huffTable) long(acc uint64) (uint16, error) {
	v := uint32(bits.Reverse16(uint16(acc))) >> 1
	l := uint(fastBits + 1)
	for ; l <= maxCodeLen && v >= t.limit[l]; l++ {
	}
	if l > maxCodeLen {
		return 0, errCorrupt("invalid Huffman code")
	}
	return t.perm[t.offset[l]+int32(v>>(maxCodeLen-l))]<<4 | uint16(l), nil
}

// fixedLit and fixedDist are the fixed-Huffman codes (RFC 1951 §3.2.6).
var fixedLit, fixedDist huffTable

func init() {
	run := bytes.Repeat
	fixedLit.init(slices.Concat(run([]byte{8}, 144), run([]byte{9}, 112), run([]byte{7}, 24), run([]byte{8}, 8)))
	fixedDist.init(run([]byte{5}, 30))
}

// inflate appends the DEFLATE stream at the start of src to out, which may
// leave garbage in out's spare capacity, and returns it with the number of
// bytes of src the stream took, its last partly used byte included. Matches
// reach no further back than where the stream's output starts, and the whole
// of out stays within apps.MaxOutput.
func inflate(src, out []byte) ([]byte, int, error) {
	d := &inflater{br: bitReader{src: src}, out: out, start: len(out)}
	for final := false; !final; {
		hdr, err := d.br.readBits(3) // BFINAL, then BTYPE
		if err != nil {
			return nil, 0, err
		}
		switch hdr >> 1 {
		case 0:
			err = d.stored()
		case 1:
			err = d.block(&fixedLit, &fixedDist)
		case 2:
			err = d.dynamic()
		default:
			err = errCorrupt("reserved block type")
		}
		if err != nil {
			return nil, 0, err
		}
		final = hdr&1 == 1
	}
	return d.out, d.br.used(), nil
}

type inflater struct {
	br            bitReader
	out           []byte
	start         int       // where this stream's output begins in out
	cl, lit, dist huffTable // a dynamic block's codes
}

func (d *inflater) stored() error {
	br := &d.br
	br.alignByte()
	if br.pos+4 > len(br.src) {
		return io.ErrUnexpectedEOF
	}
	ln := int(binary.LittleEndian.Uint16(br.src[br.pos:]))
	if nln := int(binary.LittleEndian.Uint16(br.src[br.pos+2:])); ln != ^nln&0xFFFF {
		return errCorrupt("stored block length check")
	}
	if len(d.out)+ln > apps.MaxOutput {
		return apps.ErrOutputLimit
	}
	if br.pos += 4; br.pos+ln > len(br.src) {
		return io.ErrUnexpectedEOF
	}
	d.out = append(d.out, br.src[br.pos:br.pos+ln]...)
	br.pos += ln
	return nil
}

// dynamic reads a dynamic block's codes, then the block.
func (d *inflater) dynamic() error {
	br := &d.br
	h, err := br.readBits(5 + 5 + 4)
	if err != nil {
		return err
	}
	nLit, nDist, nCl := int(h&31)+257, int(h>>5&31)+1, int(h>>10)+4
	var clLen [19]uint8
	for i := 0; i < nCl; i++ {
		v, err := br.readBits(3)
		if err != nil {
			return err
		}
		clLen[clOrder[i]] = uint8(v)
	}
	if !d.cl.init(clLen[:]) {
		return errCorrupt("bad code-length code")
	}
	var all [288 + 32]uint8
	lens := all[:nLit+nDist]
	for i := 0; i < len(lens); {
		sym, err := d.cl.decode(br)
		if err != nil {
			return err
		}
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		// 16 repeats the previous length 3-6 times; 17 and 18 leave 3-10
		// and 11-138 lengths zero.
		if sym == 16 && i == 0 {
			return errCorrupt("repeat with no previous length")
		}
		n, err := br.readBits([3]uint{2, 3, 7}[sym-16])
		if err != nil {
			return err
		}
		run := int(n) + [3]int{3, 3, 11}[sym-16]
		if i+run > len(lens) {
			return errCorrupt("code-length run overflows alphabet")
		}
		for end := i + run; i < end; i++ {
			if sym == 16 {
				lens[i] = lens[i-1]
			}
		}
	}
	if !d.lit.init(lens[:nLit]) {
		return errCorrupt("bad literal/length code")
	}
	// An empty or over-subscribed distance code is no error until a match
	// needs it.
	dist := &d.dist
	if !dist.init(lens[nLit:]) {
		dist = nil
	}
	return d.block(&d.lit, dist)
}

// block decodes one Huffman block into d.out. Its output stays in a local
// until the block ends: a store of the slice into d is a write barrier while
// the collector runs, and the output is dropped on an error anyway.
func (d *inflater) block(lit, dist *huffTable) error {
	br, out := &d.br, d.out
	for {
		// A symbol takes at most 48 bits: a length code, its extra bits, a
		// distance code and its extra bits. Past this, acc holds them or all
		// src has left; both decodes below are decode's body, written out.
		if br.n < 48 {
			br.refill()
		}
		e := lit.fast[br.acc&fastMask]
		if e == 0 {
			var err error
			if e, err = lit.long(br.acc); err != nil {
				return err
			}
		}
		if _, err := br.take(uint(e & 15)); err != nil {
			return err
		}
		switch sym := int(e >> 4); {
		case sym < 256:
			if len(out)+1 > apps.MaxOutput {
				return apps.ErrOutputLimit
			}
			out = append(out, byte(sym))
		case sym == 256:
			d.out = out
			return nil
		case sym > 285:
			return errCorrupt(fmt.Sprintf("length symbol %d", sym))
		default:
			v, err := br.take(lengthExtra[sym-257])
			if err != nil {
				return err
			}
			length := lengthBase[sym-257] + int(v)
			if dist == nil {
				return errCorrupt("match with empty distance alphabet")
			}
			if e = dist.fast[br.acc&fastMask]; e == 0 {
				if e, err = dist.long(br.acc); err != nil {
					return err
				}
			}
			if _, err := br.take(uint(e & 15)); err != nil {
				return err
			}
			dsym := int(e >> 4)
			if dsym > 29 {
				return errCorrupt(fmt.Sprintf("distance symbol %d", dsym))
			}
			if v, err = br.take(distExtra[dsym]); err != nil {
				return err
			}
			distance := distBase[dsym] + int(v)
			if distance > len(out)-d.start {
				return errCorrupt("distance beyond output start")
			}
			if len(out)+length > apps.MaxOutput {
				return apps.ErrOutputLimit
			}
			// Eight bytes at a time where the source lies at least that far
			// back, so that each load reads finished output, and the spare
			// capacity takes the overshoot. Otherwise a match longer than its
			// distance repeats itself: each append copies all that is already
			// there of it, so the chunks double.
			from, to := len(out)-distance, len(out)
			if distance >= 8 && cap(out)-to >= length+8 {
				out = out[:to+length+8]
				for i := 0; i < length; i += 8 {
					binary.LittleEndian.PutUint64(out[to+i:], binary.LittleEndian.Uint64(out[from+i:]))
				}
				out = out[:to+length]
				continue
			}
			for length > 0 {
				n := min(length, len(out)-from)
				out = append(out, out[from:from+n]...)
				length -= n
			}
		}
	}
}
