package bzip2x

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/apps/huffman"
	"compstor/internal/textgen"
)

// craftStream hand-writes a level-1 stream of one block over the single
// byte 'a' — alphabet RUNA, RUNB, EOB — whose two tables both carry the
// given code lengths, followed by syms coded with them. Symbol 3 is not in
// the alphabet: it writes the code after EOB's at EOB's length, which no
// symbol has when the lengths leave codes over. The block CRC is that of
// want.
func craftStream(lengths [3]int, syms []int, want string) []byte {
	var w bitWriter
	w.writeBits('B'<<16|'Z'<<8|'h', 24)
	w.writeBits('1', 8)
	w.writeBits(blockMagicHi, 24)
	w.writeBits(blockMagicLo, 24)
	crc := blockCRC([]byte(want))
	w.writeBits(uint64(crc), 32)
	w.writeBits(0, 1+24)            // not randomised, origPtr 0
	w.writeBits(1<<(15-'a'/16), 16) // symbol map: row 6,
	w.writeBits(1<<(15-'a'%16), 16) // column 1
	w.writeBits(2, 3)               // tables
	w.writeBits(1, 15)              // selectors
	w.writeBits(0, 1)               // selector 0
	for g := 0; g < 2; g++ {
		// A length over 31 does not fit the five-bit start; step up to it.
		cur := min(lengths[0], 31)
		w.writeBits(uint64(cur), 5)
		for _, l := range lengths {
			for ; cur < l; cur++ {
				w.writeBits(0b10, 2)
			}
			for ; cur > l; cur-- {
				w.writeBits(0b11, 2)
			}
			w.writeBits(0, 1)
		}
	}
	all := append(lengths[:], lengths[2])
	codes := huffman.CanonicalCodes(all)
	for _, s := range syms {
		w.writeBits(uint64(codes[s]), uint(all[s]))
	}
	w.writeBits(eosMagicHi, 24)
	w.writeBits(eosMagicLo, 24)
	w.writeBits(uint64(crc), 32) // one block: the stream CRC is its CRC
	w.flush()
	return w.out
}

func TestCodeLengthValidation(t *testing.T) {
	const runa, runb, eob = 0, 1, 2
	cases := []struct {
		name    string
		lengths [3]int
		syms    []int
		want    string // decoded data; "" with err set
		err     string
	}{
		{"complete", [3]int{1, 2, 2}, []int{runa, runa, eob}, "aaa", ""}, // 1 + 1·2
		{"long but legal", [3]int{1, 2, 20}, []int{runb, eob}, "aa", ""},
		{"past the fast table", [3]int{11, 12, 12}, []int{runa, runa, eob}, "aaa", ""},
		// Unassigned codes are tolerated until one is read.
		{"incomplete", [3]int{2, 2, 2}, []int{runa, eob}, "a", ""},
		{"unassigned code read", [3]int{2, 2, 2}, []int{runa, 3, eob}, "", "invalid Huffman code"},
		{"length 21", [3]int{1, 2, 21}, []int{runa, eob}, "", "code length out of range"},
		{"length 0", [3]int{0, 1, 1}, []int{eob}, "", "code length out of range"},
		{"over-subscribed", [3]int{1, 1, 2}, []int{runa, eob}, "", "over-subscribed"},
		{"over-subscribed, long", [3]int{1, 1, 20}, []int{runa, eob}, "", "over-subscribed"},
		{"giant run", [3]int{1, 2, 2}, append(make([]int, 70), eob), "", "run overflows block"},
	}
	for _, c := range cases {
		want := c.want
		if c.err != "" {
			want = "a" // any CRC: the stream fails before it is checked
		}
		got, err := Decompress(craftStream(c.lengths, c.syms, want))
		switch {
		case c.err == "" && (err != nil || string(got) != c.want):
			t.Errorf("%s: got %q, %v; want %q", c.name, got, err, c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: got %q, %v; want an error with %q", c.name, got, err, c.err)
		}
	}
}

// TestBlockSizeEnforced relabels a level-9 stream as level 1: the decoder
// must give up when the block outgrows what level 1 allows, not follow it.
func TestBlockSizeEnforced(t *testing.T) {
	src := textgen.Book(3, 400_000)
	bz := Compress(src, Options{Level: 9})
	d := new(decoder)
	if got, err := d.decompress(bz, apps.NewBytes); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("level 9 round trip: %v", err)
	}
	bz[3] = '1'
	d = new(decoder)
	_, err := d.decompress(bz, apps.NewBytes)
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("relabelled stream: %v", err)
	}
	if len(d.tt) != 100_000+blockSlack {
		t.Fatalf("BWT column of %d entries for a level-1 stream", len(d.tt))
	}
}

// TestExpandBlockMatchesReference runs the inverse BWT, RLE1 expansion and
// CRC of expandBlock against the three separate reference steps.
func TestExpandBlockMatchesReference(t *testing.T) {
	blocks := corpus()
	blocks["fibonacci"] = fibonacciWord(5000)
	blocks["rle1 boundary"] = []byte("aaaabbbbbcccc" + strings.Repeat("d", 259+4) + "eeee")
	for name, data := range blocks {
		if len(data) > 60_000 {
			data = data[:60_000]
		}
		rle, consumed := rle1Encode(nil, data, 100_000)
		if consumed != len(data) || len(rle) == 0 {
			continue
		}
		last, ptr := refBWT(rle)
		expand := func(last []byte, crc uint32) ([]byte, error) {
			tt := make([]uint32, len(last))
			var counts [256]int32
			for i, b := range last {
				tt[i] = uint32(b)
				counts[b]++
			}
			d := new(decoder)
			if err := d.expandBlock(tt, &counts, ptr, crc); err != nil {
				return nil, err
			}
			return d.output(apps.NewBytes), nil
		}
		got, err := expand(last, blockCRC(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: %d bytes, %v; want %d", name, len(got), err, len(data))
		}
		if want, _ := refRLE1Decode(refInverseBWT(last, ptr)); !bytes.Equal(got, want) {
			t.Errorf("%s: differs from the reference steps", name)
		}
		if _, err := expand(last, blockCRC(data)^1); !errors.Is(err, ErrCRC) {
			t.Errorf("%s: wrong CRC: %v", name, err)
		}
	}
	// Four equal bytes with no count after them.
	tt := []uint32{'a', 'a', 'a', 'a'}
	counts := [256]int32{'a': 4}
	if err := new(decoder).expandBlock(tt, &counts, 0, 0); err == nil || !strings.Contains(err.Error(), "truncated RLE1 run") {
		t.Errorf("truncated run: %v", err)
	}
}

func TestTruncationIsUnexpectedEOF(t *testing.T) {
	bz := Compress(textgen.Book(5, 3000), Options{})
	for cut := 4; cut < len(bz); cut += 7 {
		if _, err := Decompress(bz[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d of %d: %v", cut, len(bz), err)
		}
	}
}
