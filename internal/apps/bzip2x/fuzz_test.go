package bzip2x

import (
	"bytes"
	stdbzip2 "compress/bzip2"
	"io"
	"testing"

	"compstor/internal/apps"
)

// FuzzBzip2RoundTrip checks, for arbitrary payloads, that Compress produces
// a stream both our Decompress and the stdlib reference decode back to the
// input, and that Decompress only errors — never panics — on arbitrary
// bytes. This keeps injected corruption in chaos runs from hiding codec
// bugs behind fault-tolerance retries.
func FuzzBzip2RoundTrip(f *testing.F) {
	for _, data := range corpus() {
		if len(data) > 4096 {
			data = data[:4096]
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<20 {
			return
		}
		out := Compress(src, Options{})
		got, err := Decompress(out)
		if err != nil {
			t.Fatalf("decompress own stream: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(got))
		}
		ref, err := io.ReadAll(stdbzip2.NewReader(bytes.NewReader(out)))
		if err != nil {
			t.Fatalf("stdlib decode: %v", err)
		}
		if !bytes.Equal(ref, src) {
			t.Fatalf("stdlib decodes to %d bytes, want %d", len(ref), len(src))
		}
		// Arbitrary bytes through the decoder must fail cleanly, not crash.
		_, _ = Decompress(src)
	})
}

// FuzzBunzip2Decode feeds the decoder alone: whatever the bytes, it returns
// data or an error, never both and never a panic, sizes the BWT column by
// the level digit and not by what a block claims, and agrees with the
// standard library wherever both accept. testdata/fuzz/FuzzBunzip2Decode
// holds hand-made streams for the decoder's edges: code lengths over 20,
// over-subscribed and incomplete length sets, codes longer than the lookup
// table, a run that outgrows the block, an RLE1 run cut short.
func FuzzBunzip2Decode(f *testing.F) {
	for _, data := range corpus() {
		if len(data) > 4096 {
			data = data[:4096]
		}
		bz := Compress(data, Options{})
		f.Add(bz)
		f.Add(bz[:len(bz)/2])
		f.Add(bz[:len(bz)-1])
		for _, bit := range []int{35, 80, 8*len(bz)/2 + 3, 8*len(bz) - 50} {
			if bit >= 0 && bit < 8*len(bz) {
				flipped := bytes.Clone(bz)
				flipped[bit/8] ^= 0x80 >> (bit % 8)
				f.Add(flipped)
			}
		}
		f.Add(append(bytes.Clone(bz), bz...))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		d := new(decoder)
		got, err := d.decompress(src, apps.NewBytes)
		if err != nil && got != nil {
			t.Fatalf("data and an error: %d bytes, %v", len(got), err)
		}
		if len(d.tt) > 900_000+blockSlack {
			t.Fatalf("BWT column of %d entries", len(d.tt))
		}
		if err != nil {
			return
		}
		ref, err := io.ReadAll(stdbzip2.NewReader(bytes.NewReader(src)))
		if err == nil && !bytes.Equal(got, ref) {
			t.Fatalf("decoded %d bytes, stdlib %d", len(got), len(ref))
		}
	})
}
