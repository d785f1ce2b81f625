package gzipx

import (
	"bytes"
	"testing"
	"testing/quick"

	"compstor/internal/apps/huffman"
)

func TestLSBBitWriterKnownBits(t *testing.T) {
	var buf bytes.Buffer
	w := &bitWriter{w: &buf}
	w.writeBits(0b1, 1)
	w.writeBits(0b011, 3)
	w.writeBits(0b1010, 4) // byte: 1010 011 1 LSB-first = 0b10100111
	if err := w.flush(); err != nil {
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
		w := &bitWriter{w: &buf}
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
		if err := w.flush(); err != nil {
			return false
		}
		r := newBitReader(bytes.NewReader(buf.Bytes()))
		for _, fl := range fields {
			got, err := r.readBits(fl.width)
			if err != nil || got != fl.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitReaderAlign(t *testing.T) {
	r := newBitReader(bytes.NewReader([]byte{0xFF, 0x42}))
	r.readBits(3)
	r.alignByte()
	got, err := r.readBits(8)
	if err != nil || got != 0x42 {
		t.Fatalf("after align: %02x, %v", got, err)
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
		lens := huffman.CodeLengths(fr, 15)
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

func TestHDecoderRejectsOversubscribed(t *testing.T) {
	// Three codes of length 1 cannot exist.
	if newHDecoder([]int{1, 1, 1}) != nil {
		t.Fatal("oversubscribed code accepted")
	}
	// A valid complete code is accepted.
	if newHDecoder([]int{1, 2, 2}) == nil {
		t.Fatal("valid code rejected")
	}
	// All-zero lengths mean no decoder.
	if newHDecoder([]int{0, 0}) != nil {
		t.Fatal("empty code accepted")
	}
}

func TestHDecoderDecodesCanonical(t *testing.T) {
	lens := []int{2, 1, 3, 3}
	codes := huffman.CanonicalCodes(lens)
	d := newHDecoder(lens)
	if d == nil {
		t.Fatal("decoder nil")
	}
	// Encode each symbol and decode it back.
	for sym, l := range lens {
		var buf bytes.Buffer
		w := &bitWriter{w: &buf}
		w.writeBits(reverseBits(codes[sym], uint(l)), uint(l))
		w.flush()
		r := newBitReader(bytes.NewReader(buf.Bytes()))
		got, err := d.decode(r)
		if err != nil || got != sym {
			t.Fatalf("symbol %d decoded as %d (%v)", sym, got, err)
		}
	}
}
