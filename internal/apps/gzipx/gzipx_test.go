package gzipx

import (
	"bytes"
	stdgzip "compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"compstor/internal/apps"
	"compstor/internal/apps/huffman"
	"compstor/internal/textgen"
)

// corpus builds assorted test payloads.
func corpus() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 60_000)
	rng.Read(random)
	text := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 2000))
	runs := bytes.Repeat([]byte{'A'}, 100_000)
	mixed := append(append([]byte{}, text[:30_000]...), random[:30_000]...)
	return map[string][]byte{
		"empty":    {},
		"single":   {42},
		"tiny":     []byte("hi"),
		"text":     text,
		"runs":     runs,
		"random":   random,
		"mixed":    mixed,
		"aba":      []byte("abababababababababababab"),
		"overlaps": []byte("aaabaaabaaabaaabaaabaaab"),
	}
}

func TestDeflateRoundTrip(t *testing.T) {
	for name, data := range corpus() {
		buf := bytes.NewBuffer(compressors.New().deflate(data))
		got, used, err := inflate(buf.Bytes(), nil)
		if err != nil {
			t.Fatalf("%s: inflate: %v", name, err)
		}
		if used != buf.Len() {
			t.Fatalf("%s: inflate took %d of %d bytes", name, used, buf.Len())
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip mismatch (%d vs %d bytes)", name, len(got), len(data))
		}
	}
}

func TestDeflateDecodableByStdlib(t *testing.T) {
	// Our encoder must produce streams the reference (stdlib) decoder
	// accepts: this proves wire-format compatibility.
	for name, data := range corpus() {
		out, err := Compress(data)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		zr, err := stdgzip.NewReader(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("%s: stdlib reader: %v", name, err)
		}
		got, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: stdlib decode: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: stdlib decode mismatch", name)
		}
	}
}

func TestInflateDecodesStdlibOutput(t *testing.T) {
	// And our decoder must accept streams the reference encoder produces.
	for name, data := range corpus() {
		var buf bytes.Buffer
		zw := stdgzip.NewWriter(&buf)
		zw.Write(data)
		zw.Close()
		got, err := Decompress(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: decompress stdlib output: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: mismatch decoding stdlib output", name)
		}
	}
}

// TestInflateMatchesReference decodes gzipx and compress/gzip streams, the
// latter at every level from Huffman-only to best, with the table-driven
// inflater and with the oracle: both give the input back, byte for byte.
func TestInflateMatchesReference(t *testing.T) {
	payloads := corpus()
	for _, size := range []int{1 << 10, 28 << 10, 1 << 20} {
		payloads[fmt.Sprintf("book %d", size)] = textgen.Book(2018, size)
	}
	for name, data := range payloads {
		ours, err := Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		streams := map[string][]byte{"gzipx": ours}
		for level := stdgzip.HuffmanOnly; level <= stdgzip.BestCompression; level++ {
			var buf bytes.Buffer
			zw, _ := stdgzip.NewWriterLevel(&buf, level)
			zw.Write(data)
			zw.Close()
			streams[fmt.Sprintf("level %d", level)] = buf.Bytes()
		}
		for enc, z := range streams {
			got, err := Decompress(z)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s, %s: %d bytes, %v; want %d", name, enc, len(got), err, len(data))
			}
			if ref, err := refDecompress(z); err != nil || !bytes.Equal(ref, got) {
				t.Fatalf("%s, %s: the oracle gives %d bytes, %v", name, enc, len(ref), err)
			}
		}
	}
}

// TestInflateStopsAtOutputLimit puts a stored block, literals and a match
// across apps.MaxOutput: each fails with apps.ErrOutputLimit before it
// writes, as in the oracle, and decodes when two more bytes fit.
func TestInflateStopsAtOutputLimit(t *testing.T) {
	fixed := func(emit func(w *bitWriter)) []byte {
		var buf bytes.Buffer
		w := &bitWriter{}
		w.writeBits(0b011, 3) // final, fixed codes
		emit(w)
		w.writeBits(0, 7) // end of block
		flush(w, &buf)
		return buf.Bytes()
	}
	literal := func(w *bitWriter, c byte) { w.writeBits(reverseBits(0x30+uint32(c), 8), 8) }
	streams := map[string][]byte{
		"stored": {0b001, 3, 0, 0xFC, 0xFF, 'x', 'y', 'z'},
		"literals": fixed(func(w *bitWriter) {
			literal(w, 'x')
			literal(w, 'y')
			literal(w, 'z')
		}),
		"match": fixed(func(w *bitWriter) {
			literal(w, 'x')
			w.writeBits(reverseBits(1, 7), 7) // length symbol 257: 3 bytes,
			w.writeBits(reverseBits(0, 5), 5) // distance symbol 0: 1 back
		}),
	}
	for name, z := range streams {
		for _, room := range []int{2, 4} {
			_, _, err := inflate(z, make([]byte, apps.MaxOutput-room, apps.MaxOutput))
			_, refErr := refInflate(bytes.NewReader(z), make([]byte, apps.MaxOutput-room, apps.MaxOutput))
			if want := room < 4; errors.Is(err, apps.ErrOutputLimit) != want || errors.Is(refErr, apps.ErrOutputLimit) != want {
				t.Errorf("%s with %d bytes to spare: %v, oracle %v", name, room, err, refErr)
			}
		}
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	text := []byte(strings.Repeat("compression should shrink redundant text. ", 5000))
	out, err := Compress(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) >= len(text)/3 {
		t.Fatalf("compressed %d -> %d; poor ratio for redundant text", len(text), len(out))
	}
}

func TestDecompressRejectsCorruption(t *testing.T) {
	out, _ := Compress([]byte("important payload that must be protected"))
	for _, i := range []int{2, len(out) / 2, len(out) - 3} {
		bad := append([]byte{}, out...)
		bad[i] ^= 0xFF
		if _, err := Decompress(bad); err == nil {
			// A flipped bit mid-stream can decode to wrong bytes; the CRC
			// must catch whatever the Huffman layer does not.
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
}

func TestDecompressRejectsGarbageHeader(t *testing.T) {
	if _, err := Decompress([]byte("definitely not gzip data")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decompress([]byte{0x1F}); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestDecompressHandlesHeaderFields(t *testing.T) {
	// stdlib writer with an extra field, a name and a comment exercises
	// FEXTRA/FNAME/FCOMMENT skipping; FHCRC is set by hand.
	var buf bytes.Buffer
	zw := stdgzip.NewWriter(&buf)
	zw.Extra = []byte("ex")
	zw.Name = "file.txt"
	zw.Comment = "a comment"
	zw.Write([]byte("payload"))
	zw.Close()
	plain, _ := Compress([]byte("payload"))
	hcrc := append(append(bytes.Clone(plain[:10]), 0xAB, 0xCD), plain[10:]...)
	hcrc[3] |= flagFHCRC
	for _, z := range [][]byte{buf.Bytes(), hcrc} {
		got, err := Decompress(z)
		if err != nil {
			t.Fatalf("decompress with header fields: %v", err)
		}
		if string(got) != "payload" {
			t.Fatalf("got %q", got)
		}
		// Cut anywhere in the header, the member is rejected, as the
		// oracle rejects it.
		for n := 0; n < 10+2+2+len("file.txt")+1+len("a comment")+1 && n < len(z); n++ {
			_, err := Decompress(z[:n])
			if _, refErr := refDecompress(z[:n]); err == nil || refErr == nil {
				t.Fatalf("header cut to %d bytes: %v, oracle %v", n, err, refErr)
			}
		}
	}
}

func TestMultiBlockStreams(t *testing.T) {
	// Force multiple dynamic blocks (> blockSize tokens) and verify both
	// decoders.
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 300_000)
	for i := range data {
		data[i] = byte('a' + rng.Intn(4)) // compressible but match-rich
	}
	out, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-block round trip failed")
	}
	zr, err := stdgzip.NewReader(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	std, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(std, data) {
		t.Fatalf("stdlib multi-block decode failed: %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		out, err := Compress(data)
		if err != nil {
			return false
		}
		got, err := Decompress(out)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestStdlibCrossProperty(t *testing.T) {
	f := func(data []byte) bool {
		out, err := Compress(data)
		if err != nil {
			return false
		}
		zr, err := stdgzip.NewReader(bytes.NewReader(out))
		if err != nil {
			return false
		}
		got, err := io.ReadAll(zr)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestHuffmanLengthsAreValidKraft(t *testing.T) {
	f := func(freqs []uint16) bool {
		fr := make([]int, len(freqs))
		for i, v := range freqs {
			fr[i] = int(v)
		}
		lens := new(huffman.Scratch).CodeLengths(nil, fr, 15)
		// Kraft inequality must hold and lengths must respect the cap.
		sum := 0.0
		used := 0
		for i, l := range lens {
			if l < 0 || l > 15 {
				return false
			}
			if (l == 0) != (fr[i] == 0) {
				return false
			}
			if l > 0 {
				sum += 1 / float64(int(1)<<l)
				used++
			}
		}
		return used == 0 || sum <= 1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReverseBits(t *testing.T) {
	if got := reverseBits(0b1011, 4); got != 0b1101 {
		t.Fatalf("reverseBits = %04b", got)
	}
	if got := reverseBits(1, 1); got != 1 {
		t.Fatalf("reverseBits(1,1) = %d", got)
	}
}

// The benchmarks run on generated book text at the size of one served file,
// where per-call fixed cost shows, and at 1 MiB. A repeated sentence would
// compress to a handful of long matches and flatter the encoder tenfold.
var benchSizes = []struct {
	name string
	size int
}{{"28KiB", 28 << 10}, {"1MiB", 1 << 20}}

func BenchmarkCompress(b *testing.B) {
	for _, sz := range benchSizes {
		data := textgen.Book(2018, sz.size)
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compress(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecompress(b *testing.B) {
	for _, sz := range benchSizes {
		data := textgen.Book(2018, sz.size)
		out, _ := Compress(data)
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decompress(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestMultiMemberStream(t *testing.T) {
	// gunzip semantics: concatenated gzip members decompress to the
	// concatenation of their contents.
	a, _ := Compress([]byte("first member "))
	b, _ := Compress([]byte("second member"))
	got, err := Decompress(append(append([]byte{}, a...), b...))
	if err != nil {
		t.Fatalf("multi-member: %v", err)
	}
	if string(got) != "first member second member" {
		t.Fatalf("got %q", got)
	}
	// stdlib writer output concatenated with ours also decodes.
	var buf bytes.Buffer
	zw := stdgzip.NewWriter(&buf)
	zw.Write([]byte("std part "))
	zw.Close()
	mixed := append(buf.Bytes(), a...)
	got, err = Decompress(mixed)
	if err != nil || string(got) != "std part first member " {
		t.Fatalf("mixed members: %q, %v", got, err)
	}
}

func TestTruncatedSecondMemberRejected(t *testing.T) {
	a, _ := Compress([]byte("complete"))
	bad := append(append([]byte{}, a...), 0x1F) // dangling partial header
	if _, err := Decompress(bad); err == nil {
		t.Fatal("truncated second member accepted")
	}
}
