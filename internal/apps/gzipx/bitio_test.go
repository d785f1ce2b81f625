package gzipx

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"compstor/internal/apps/huffman"
)

// flush aligns w and appends what it holds to buf.
func flush(w *bitWriter, buf *bytes.Buffer) error {
	w.align()
	_, err := buf.Write(w.buf)
	return err
}

func TestLSBBitWriterKnownBits(t *testing.T) {
	var buf bytes.Buffer
	w := &bitWriter{}
	w.writeBits(0b1, 1)
	w.writeBits(0b011, 3)
	w.writeBits(0b1010, 4) // byte: 1010 011 1 LSB-first = 0b10100111
	if err := flush(w, &buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); len(got) != 1 || got[0] != 0b10100111 {
		t.Fatalf("byte = %08b", got)
	}
}

func TestLSBBitRoundTripProperty(t *testing.T) {
	f := func(vals []uint16, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		var buf bytes.Buffer
		w := &bitWriter{}
		type field struct {
			v     uint32
			width uint
		}
		var fields []field
		for i := 0; i < n; i++ {
			width := uint(widths[i]%16) + 1
			v := uint32(vals[i]) & (1<<width - 1)
			fields = append(fields, field{v, width})
			w.writeBits(v, width)
		}
		if err := flush(w, &buf); err != nil {
			return false
		}
		r := &bitReader{src: buf.Bytes()}
		for _, fl := range fields {
			got, err := r.readBits(fl.width)
			if err != nil || got != fl.v {
				return false
			}
		}
		// What is left is the zero padding of the last byte, then nothing.
		if _, err := r.readBits(8); err != io.ErrUnexpectedEOF {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitReaderAlign(t *testing.T) {
	// A short source is loaded byte by byte, a long one eight bytes at a
	// time: alignByte must give back the whole bytes acc holds.
	for _, src := range [][]byte{{0xFF, 0x42}, {0xFF, 0x42, 1, 2, 3, 4, 5, 6, 7, 8, 9}} {
		r := &bitReader{src: src}
		r.readBits(3)
		if r.used() != 1 {
			t.Fatalf("%d-byte source: %d bytes used after 3 bits", len(src), r.used())
		}
		r.alignByte()
		got, err := r.readBits(8)
		if err != nil || got != 0x42 || r.used() != 2 {
			t.Fatalf("%d-byte source, after align: %02x, %v, %d used", len(src), got, err, r.used())
		}
	}

	// A fixed-Huffman block of 29 bits, then a stored block whose header
	// starts mid-byte, then bytes that are not part of the stream.
	var buf bytes.Buffer
	w := &bitWriter{}
	w.writeBits(0b010, 3) // not final, fixed codes
	for _, c := range []byte("ab") {
		w.writeBits(reverseBits(0x30+uint32(c), 8), 8)
	}
	w.writeBits(0, 7)     // end of block
	w.writeBits(0b001, 3) // final, stored
	w.align()
	for _, b := range []byte{3, 0, 0xFC, 0xFF, 'x', 'y', 'z'} {
		w.writeBits(uint32(b), 8)
	}
	if err := flush(w, &buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Len()
	buf.WriteString("trailer beyond the stream")
	got, used, err := inflate(buf.Bytes(), []byte("<"))
	if err != nil || string(got) != "<abxyz" || used != stream {
		t.Fatalf("inflate = %q, %d of %d bytes, %v", got, used, stream, err)
	}
	r := bytes.NewReader(buf.Bytes())
	if ref, err := refInflate(r, []byte("<")); err != nil || string(ref) != "<abxyz" || r.Len() != buf.Len()-stream {
		t.Fatalf("oracle: %q, %d bytes left, %v", ref, r.Len(), err)
	}
}

func TestCanonicalCodesPrefixFree(t *testing.T) {
	f := func(freqs []uint8) bool {
		fr := make([]int, len(freqs))
		used := 0
		for i, v := range freqs {
			fr[i] = int(v)
			if v > 0 {
				used++
			}
		}
		if used < 2 {
			return true
		}
		lens := new(huffman.Scratch).CodeLengths(nil, fr, 15)
		codes := huffman.CanonicalCodes(lens)
		// Prefix-freedom: no code may be a prefix of another.
		type entry struct {
			code uint32
			bits int
		}
		var es []entry
		for i, l := range lens {
			if l > 0 {
				es = append(es, entry{codes[i], l})
			}
		}
		for i := range es {
			for j := range es {
				if i == j {
					continue
				}
				a, b := es[i], es[j]
				if a.bits <= b.bits && b.code>>(uint(b.bits-a.bits)) == a.code {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// slowLengths is a complete code that reaches every length, 1 to 15: the
// codes of 11 bits and more miss the direct lookup.
var slowLengths = []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 15}

func TestHDecoderRejectsOversubscribed(t *testing.T) {
	var h huffTable
	for _, c := range []struct {
		lens []uint8
		ok   bool
	}{
		{[]uint8{1, 1, 1}, false}, // three codes of length 1 cannot exist
		{[]uint8{1, 2, 2}, true},  // a complete code
		{[]uint8{0, 0}, false},    // no code at all
		{[]uint8{0, 3}, true},     // one code, seven unassigned
		{slowLengths, true},
		{append(slowLengths[:len(slowLengths):len(slowLengths)], 15), false},
	} {
		if got := h.init(c.lens); got != c.ok {
			t.Errorf("init(%v) = %v, want %v", c.lens, got, c.ok)
		}
		ints := make([]int, len(c.lens))
		for i, l := range c.lens {
			ints[i] = int(l)
		}
		if ref := newRefHDecoder(ints) != nil; ref != c.ok {
			t.Errorf("oracle accepts %v: %v, want %v", c.lens, ref, c.ok)
		}
	}
}

func TestHDecoderDecodesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lens := range [][]uint8{{2, 1, 3, 3}, slowLengths} {
		ints := make([]int, len(lens))
		for i, l := range lens {
			ints[i] = int(l)
		}
		codes := huffman.CanonicalCodes(ints)
		var h huffTable
		if !h.init(lens) {
			t.Fatalf("%v rejected", lens)
		}
		// Every symbol many times over, in random order and across refills,
		// each followed by a 3-bit marker the decoder must leave in place.
		var syms []int
		var buf bytes.Buffer
		w := &bitWriter{}
		for i := 0; i < 50*len(lens); i++ {
			sym := rng.Intn(len(lens))
			syms = append(syms, sym)
			w.writeBits(reverseBits(codes[sym], uint(lens[sym])), uint(lens[sym]))
			w.writeBits(uint32(i%8), 3)
		}
		flush(w, &buf)
		r := &bitReader{src: buf.Bytes()}
		for i, want := range syms {
			got, err := h.decode(r)
			if err != nil || got != want {
				t.Fatalf("%v, symbol %d: decoded %d, want %d (%v)", lens, i, got, want, err)
			}
			if m, err := r.readBits(3); err != nil || m != uint32(i%8) {
				t.Fatalf("%v, symbol %d: marker %d, %v", lens, i, m, err)
			}
		}
	}

	var h huffTable
	h.init([]uint8{0, 3}) // symbol 1 is 000
	if _, err := h.decode(&bitReader{src: []byte{0x01}}); err == nil || err == io.ErrUnexpectedEOF {
		t.Errorf("an unassigned code decoded: %v", err)
	}
	h.init(slowLengths) // the last symbol is fifteen 1s
	if _, err := h.decode(&bitReader{src: []byte{0xFF}}); err != io.ErrUnexpectedEOF {
		t.Errorf("a 15-bit code cut after 8 bits: %v", err)
	}
}
