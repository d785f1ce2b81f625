package gzipx

import (
	"fmt"
	"io"

	"compstor/internal/apps"
)

// corruptError reports a malformed DEFLATE stream.
type corruptError string

func (e corruptError) Error() string { return "gzipx: corrupt stream: " + string(e) }

func errCorrupt(msg string) error { return corruptError(msg) }

// fixedLit and fixedDist are the fixed-Huffman code lengths (RFC 1951
// §3.2.6), built lazily.
var fixedLitDecoder, fixedDistDecoder *hDecoder

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
	fixedLitDecoder = newHDecoder(litLen)
	distLen := make([]int, 30)
	for i := range distLen {
		distLen[i] = 5
	}
	fixedDistDecoder = newHDecoder(distLen)
}

// inflate appends the DEFLATE stream read from br to out. Matches reach no
// further back than where the stream's output starts, and the whole of out
// stays within apps.MaxOutput.
func inflate(br io.ByteReader, out []byte) ([]byte, error) {
	d := &inflater{br: newBitReader(br), raw: br, out: out, start: len(out)}
	if err := d.run(); err != nil {
		return nil, err
	}
	return d.out, nil
}

type inflater struct {
	br    *bitReader
	raw   io.ByteReader
	out   []byte
	start int // where this stream's output begins in out
}

// room fails once n more bytes would take the output past apps.MaxOutput.
func (d *inflater) room(n int) error {
	if len(d.out)+n > apps.MaxOutput {
		return apps.ErrOutputLimit
	}
	return nil
}

func (d *inflater) run() error {
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
			err = d.block(fixedLitDecoder, fixedDistDecoder)
		case 2:
			var lit, dist *hDecoder
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

func (d *inflater) stored() error {
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

func (d *inflater) readLE16() (int, error) {
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

func (d *inflater) readDynamicHeader() (*hDecoder, *hDecoder, error) {
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
	clDec := newHDecoder(clLen)
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
	lit := newHDecoder(lens[:nLit])
	if lit == nil {
		return nil, nil, errCorrupt("bad literal/length code")
	}
	dist := newHDecoder(lens[nLit:])
	// dist may be nil for all-literal blocks; block() guards its use.
	return lit, dist, nil
}

func (d *inflater) block(lit, dist *hDecoder) error {
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
