package bzip2x

import (
	"errors"
	"fmt"
	"io"

	"compstor/internal/apps"
)

// corruptError reports a malformed bzip2 stream.
type corruptError string

func (e corruptError) Error() string { return "bzip2x: corrupt stream: " + string(e) }

func errCorrupt(msg string) error { return corruptError(msg) }

// ErrCRC is wrapped by CRC-mismatch errors.
var ErrCRC = errors.New("bzip2x: CRC mismatch")

const (
	maxTables     = 6
	formatCodeLen = 20 // the format's longest code
	maxAlpha      = 258
	blockSlack    = 10 // bytes a block may run over its level's size
)

// decoder is the scratch of one Decompress call, recycled through decoders.
type decoder struct {
	br        bitReader
	tt        []uint32 // a block's BWT column, one byte per entry, then the T-vector above it
	blk       []byte   // every block as the inverse BWT gives it, before RLE1 is undone
	runs      []int32  // where in blk RLE1's run counts are
	selectors []byte
	tables    [maxTables]huffTable
	size      int // bytes the blocks decoded so far expand to
}

var decoders = apps.Spares[decoder]{New: func() *decoder { return new(decoder) }}

// Decompress parses one or more concatenated .bz2 streams (as real bunzip2
// does) and returns the original data, verifying block and stream CRCs.
func Decompress(src []byte) ([]byte, error) { return decompress(src, apps.NewBytes) }

// decompress is Decompress into a buffer of alloc's.
func decompress(src []byte, alloc func(n int) []byte) ([]byte, error) {
	d := decoders.Get()
	out, err := d.decompress(src, alloc)
	d.br.src = nil
	decoders.Put(d)
	return out, err
}

// decompress inverts every block into d.blk, and undoes RLE1 into the
// output only when all of them are, at their summed size: an expansion past
// apps.MaxOutput stops at the first block that would pass it, with no
// output allocated.
func (d *decoder) decompress(src []byte, alloc func(n int) []byte) ([]byte, error) {
	d.br, d.blk, d.runs, d.size = bitReader{src: src}, d.blk[:0], d.runs[:0], 0
	for stream := 0; stream == 0 || d.br.more(); stream++ {
		if err := d.decodeStream(); err != nil {
			return nil, err
		}
		d.br.alignByte()
	}
	return d.output(alloc), nil
}

// output undoes RLE1 over d.blk into a buffer of alloc's.
func (d *decoder) output(alloc func(n int) []byte) []byte {
	out, from := alloc(d.size)[:0], 0
	for _, r := range d.runs {
		out = append(out, d.blk[from:r]...)
		for range d.blk[r] {
			out = append(out, d.blk[r-1])
		}
		from = int(r) + 1
	}
	return append(out, d.blk[from:]...)
}

// decodeStream parses a whole "BZh" stream into d.blk.
func (d *decoder) decodeStream() error {
	hdr, err := d.br.readBits(32)
	if err != nil {
		return errCorrupt("short header")
	}
	if hdr>>8 != 0x425A68 { // "BZh"
		return errCorrupt("bad magic")
	}
	level := int(hdr&0xFF) - '0'
	if level < 1 || level > 9 {
		return errCorrupt("bad level digit")
	}
	limit := level*100_000 + blockSlack
	d.tt = sized(d.tt, limit)
	var streamCRC uint32
	for {
		magic, err := d.br.readBits(48)
		if err != nil {
			return err
		}
		switch magic {
		case blockMagicHi<<24 | blockMagicLo:
			crc, err := d.readBlock()
			if err != nil {
				return err
			}
			streamCRC = combineCRC(streamCRC, crc)
		case eosMagicHi<<24 | eosMagicLo:
			want, err := d.br.readBits(32)
			if err != nil {
				return err
			}
			if uint32(want) != streamCRC {
				return fmt.Errorf("%w: stream CRC %08x != %08x", ErrCRC, streamCRC, want)
			}
			return nil
		default:
			return errCorrupt("bad block magic")
		}
	}
}

// fastBits is the width of a huffTable's direct lookup.
const fastBits = 10

// huffTable decodes one canonical prefix code over the block alphabet from
// the next formatCodeLen bits of the stream.
type huffTable struct {
	// fast is indexed by the next fastBits bits: symbol<<5 | length when
	// they begin with a code that short, 0 otherwise.
	fast [1 << fastBits]uint16
	// For longer codes: limit[l] is the least formatCodeLen-bit value above
	// every code of at most l bits, and the code of l bits with value c
	// stands for perm[offset[l]+c].
	limit  [formatCodeLen + 1]uint32
	offset [formatCodeLen + 1]int32
	perm   [maxAlpha]uint16
}

// init builds the table from one code length per symbol, each 1..formatCodeLen.
// Codes are assigned in order of length, then symbol, from zero up, as the
// reference decoder does. A set that leaves codes unassigned is accepted, as
// compress/bzip2 accepts it; reading an unassigned code is an error. A set
// that claims more codes than exist is not a prefix code and is rejected.
func (t *huffTable) init(lengths []uint8) error {
	var count [formatCodeLen + 2]int32
	for _, l := range lengths {
		count[l]++
	}
	var next [formatCodeLen + 2]uint32 // the first code of each length, then the next free one
	code, index := uint32(0), int32(0)
	for l := 1; l <= formatCodeLen; l++ {
		next[l] = code
		t.offset[l] = index - int32(code)
		code += uint32(count[l])
		if code > 1<<l {
			return errCorrupt("over-subscribed code lengths")
		}
		t.limit[l] = code << (formatCodeLen - l)
		index += count[l]
		code <<= 1
	}
	clear(t.fast[:])
	for sym, l := range lengths {
		c := next[l]
		next[l]++
		t.perm[t.offset[l]+int32(c)] = uint16(sym)
		if l <= fastBits {
			lo := c << (fastBits - l)
			e := uint16(sym)<<5 | uint16(l)
			for i := range t.fast[lo : lo+1<<(fastBits-l)] {
				t.fast[lo+uint32(i)] = e
			}
		}
	}
	return nil
}

// readBlock decodes one block into d.blk, returning the block CRC from the
// header after verifying it.
func (d *decoder) readBlock() (uint32, error) {
	br := &d.br
	crc64, err := br.readBits(32)
	if err != nil {
		return 0, err
	}
	hdrCRC := uint32(crc64)
	hdr, err := br.readBits(1 + 24) // the randomised flag and origPtr
	if err != nil {
		return 0, err
	}
	if hdr>>24 != 0 {
		return 0, errCorrupt("randomised blocks are deprecated and unsupported")
	}
	origPtr := int(hdr & 0xFFFFFF)

	// Symbol map.
	groups, err := br.readBits(16)
	if err != nil {
		return 0, err
	}
	var mtf [256]byte // byte values, most recently used first
	nUsed := 0
	for g := 0; g < 16; g++ {
		if groups&(1<<(15-g)) == 0 {
			continue
		}
		row, err := br.readBits(16)
		if err != nil {
			return 0, err
		}
		for b := 0; b < 16; b++ {
			if row&(1<<(15-b)) != 0 {
				mtf[nUsed] = byte(g*16 + b)
				nUsed++
			}
		}
	}
	if nUsed == 0 {
		return 0, errCorrupt("empty symbol map")
	}
	alpha := nUsed + 2
	eob := alpha - 1

	sizes, err := br.readBits(3 + 15)
	if err != nil {
		return 0, err
	}
	nGroups, nSel := int(sizes>>15), int(sizes&0x7FFF)
	if nGroups < 2 || nGroups > maxTables {
		return 0, errCorrupt("bad group count")
	}
	if nSel < 1 {
		return 0, errCorrupt("no selectors")
	}
	// Selectors, MTF-decoded.
	mtfSel := [maxTables]byte{0, 1, 2, 3, 4, 5}
	d.selectors = sized(d.selectors, nSel)
	for i := range d.selectors {
		j := 0
		for {
			bit, err := br.readBits(1)
			if err != nil {
				return 0, err
			}
			if bit == 0 {
				break
			}
			j++
			if j >= nGroups {
				return 0, errCorrupt("selector out of range")
			}
		}
		v := mtfSel[j]
		copy(mtfSel[1:j+1], mtfSel[:j])
		mtfSel[0] = v
		d.selectors[i] = v
	}

	// Code tables.
	var lengths [maxAlpha]uint8
	for g := 0; g < nGroups; g++ {
		cur, err := br.readBits(5)
		if err != nil {
			return 0, err
		}
		for s := 0; s < alpha; s++ {
			for {
				if cur < 1 || cur > formatCodeLen {
					return 0, errCorrupt("code length out of range")
				}
				bit, err := br.readBits(1)
				if err != nil {
					return 0, err
				}
				if bit == 0 {
					break
				}
				dir, err := br.readBits(1)
				if err != nil {
					return 0, err
				}
				cur += 1 - 2*dir // unsigned: adds 1 or, wrapping, takes 1 away
			}
			lengths[s] = uint8(cur)
		}
		if err := d.tables[g].init(lengths[:alpha]); err != nil {
			return 0, err
		}
	}

	// Symbol stream: MTF + RUNA/RUNB decode straight into the BWT column.
	tt := d.tt
	var counts [256]int32
	n := 0
	run, shift := 0, uint(0)
	var tbl *huffTable
	sel, left := 0, 0 // selectors used, symbols left in the current group
	for {
		if left == 0 {
			if sel == nSel {
				return 0, errCorrupt("selector stream exhausted")
			}
			tbl = &d.tables[d.selectors[sel]]
			sel++
			left = groupSize
		}
		left--
		if br.n < formatCodeLen {
			br.refill()
		}
		// Past the end of src the bits read as zero; a code that needs
		// them is longer than what is left.
		v := uint32(br.acc >> (64 - formatCodeLen))
		var sym int
		var l uint
		if e := tbl.fast[v>>(formatCodeLen-fastBits)]; e != 0 {
			sym, l = int(e>>5), uint(e&31)
		} else {
			for l = fastBits + 1; l <= formatCodeLen && v >= tbl.limit[l]; l++ {
			}
			if l > formatCodeLen {
				return 0, errCorrupt("invalid Huffman code")
			}
			sym = int(tbl.perm[tbl.offset[l]+int32(v>>(formatCodeLen-l))])
		}
		if l > br.n {
			return 0, io.ErrUnexpectedEOF
		}
		br.acc <<= l
		br.n -= l

		if sym <= 1 { // RUNA, RUNB: bijective base-2 digits of a run of mtf[0]
			run += (sym + 1) << shift
			shift++
			if run > len(tt) {
				return 0, errCorrupt("run overflows block")
			}
			continue
		}
		if run > 0 {
			if n+run > len(tt) {
				return 0, errCorrupt("run overflows block")
			}
			b := mtf[0]
			for i := range tt[n : n+run] {
				tt[n+i] = uint32(b)
			}
			counts[b] += int32(run)
			n += run
			run, shift = 0, 0
		}
		if sym == eob {
			break
		}
		j := sym - 1
		b := mtf[j]
		copy(mtf[1:j+1], mtf[:j])
		mtf[0] = b
		if n >= len(tt) {
			return 0, errCorrupt("block overflows declared size")
		}
		tt[n] = uint32(b)
		counts[b]++
		n++
	}
	if origPtr >= n {
		return 0, errCorrupt("origPtr beyond block")
	}
	return hdrCRC, d.expandBlock(tt[:n], &counts, origPtr, hdrCRC)
}

// expandBlock inverts the BWT whose last column is the low bytes of tt (and
// whose byte counts are counts) onto the end of d.blk, noting on the way
// where the initial run-length encoding left its counts, and so the size and
// the CRC (which must be want) of the data. A block that would take the
// output past apps.MaxOutput fails.
func (d *decoder) expandBlock(tt []uint32, counts *[256]int32, origPtr int, want uint32) error {
	// Turn counts into the row at which each byte value starts in the
	// first column, then put above each row's byte the row that follows its
	// rotation: the standard T-vector.
	sum := int32(0)
	for v, k := range counts {
		counts[v] = sum
		sum += k
	}
	for i, e := range tt {
		b := byte(e)
		tt[counts[b]] |= uint32(i) << 8
		counts[b]++
	}
	start := len(d.blk)
	d.blk = sized(d.blk, start+len(tt))
	blk, runs := d.blk[start:], d.runs
	crc := ^uint32(0)
	pos := tt[origPtr] >> 8
	size := len(tt)
	prev, same := -1, 0 // the last byte and how many times in a row it has come
	for i := range blk {
		e := tt[pos]
		b := byte(e)
		pos = e >> 8
		blk[i] = b
		if same == 4 {
			// After four equal bytes comes a count of further repeats.
			for k := 0; k < int(b); k++ {
				crc = crc<<8 ^ crcTable[byte(crc>>24)^byte(prev)]
			}
			runs = append(runs, int32(start+i))
			size += int(b) - 1
			prev, same = -1, 0
			continue
		}
		if int(b) == prev {
			same++
		} else {
			prev, same = int(b), 1
		}
		crc = crc<<8 ^ crcTable[byte(crc>>24)^b]
	}
	d.runs = runs
	if same == 4 {
		return errCorrupt("truncated RLE1 run")
	}
	if crc = ^crc; crc != want {
		return fmt.Errorf("%w: block CRC %08x != %08x", ErrCRC, crc, want)
	}
	if d.size += size; d.size > apps.MaxOutput {
		return apps.ErrOutputLimit
	}
	return nil
}
