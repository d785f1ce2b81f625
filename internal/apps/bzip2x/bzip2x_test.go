package bzip2x

import (
	"bytes"
	stdbzip2 "compress/bzip2"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"compstor/internal/textgen"
)

func corpus() map[string][]byte {
	rng := rand.New(rand.NewSource(11))
	random := make([]byte, 40_000)
	rng.Read(random)
	text := []byte(strings.Repeat("she sells sea shells by the sea shore. ", 3000))
	runs := bytes.Repeat([]byte{'x'}, 50_000)
	periodic := bytes.Repeat([]byte("ab"), 10_000)
	return map[string][]byte{
		"empty":    {},
		"single":   {7},
		"tiny":     []byte("bz"),
		"text":     text,
		"runs":     runs,
		"random":   random,
		"periodic": periodic,
		"run4":     []byte("aaaa"),
		"run259":   bytes.Repeat([]byte{'q'}, 259),
		"run260":   bytes.Repeat([]byte{'q'}, 260),
	}
}

// bwt runs the rotation sort on fresh scratch.
func bwt(block []byte) (last []byte, origPtr int) {
	c := new(compressor)
	origPtr = c.bwt(block)
	return c.last, origPtr
}

func TestBWTRoundTrip(t *testing.T) {
	for name, data := range corpus() {
		if len(data) > 5000 {
			data = data[:5000]
		}
		last, ptr := bwt(data)
		got := refInverseBWT(last, ptr)
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: BWT round trip failed", name)
		}
	}
}

func TestBWTKnownVector(t *testing.T) {
	// Classic example: BWT("banana") over cyclic rotations.
	last, ptr := bwt([]byte("banana"))
	if string(last) != "nnbaaa" {
		t.Fatalf("BWT(banana) last column = %q, want nnbaaa", last)
	}
	if got := refInverseBWT(last, ptr); string(got) != "banana" {
		t.Fatalf("inverse = %q", got)
	}
}

func TestRLE1RoundTrip(t *testing.T) {
	for name, data := range corpus() {
		enc, consumed := rle1Encode(nil, data, 1<<30)
		if consumed != len(data) {
			t.Fatalf("%s: consumed %d of %d", name, consumed, len(data))
		}
		dec, err := refRLE1Decode(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("%s: RLE1 mismatch", name)
		}
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	for name, data := range corpus() {
		out := Compress(data, Options{})
		got, err := Decompress(out)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestStdlibDecodesOurOutput(t *testing.T) {
	// The encoder must be wire-compatible with real bunzip2; the Go
	// standard library reader is the reference.
	for name, data := range corpus() {
		out := Compress(data, Options{})
		got, err := io.ReadAll(stdbzip2.NewReader(bytes.NewReader(out)))
		if err != nil {
			t.Fatalf("%s: stdlib decode: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: stdlib decode mismatch (%d vs %d bytes)", name, len(got), len(data))
		}
	}
}

func TestMultiBlockStream(t *testing.T) {
	// Force multiple 100 kB blocks.
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 250_000)
	for i := range data {
		data[i] = byte('a' + rng.Intn(8))
	}
	out := Compress(data, Options{Level: 1})
	got, err := Decompress(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-block round trip failed")
	}
	std, err := io.ReadAll(stdbzip2.NewReader(bytes.NewReader(out)))
	if err != nil || !bytes.Equal(std, data) {
		t.Fatalf("stdlib multi-block decode: %v", err)
	}
}

func TestCompressionRatioOnText(t *testing.T) {
	text := []byte(strings.Repeat("burrows wheeler transforms cluster similar contexts together. ", 2000))
	out := Compress(text, Options{})
	if len(out) >= len(text)/4 {
		t.Fatalf("compressed %d -> %d; poor ratio for redundant text", len(text), len(out))
	}
}

func TestCorruptionDetected(t *testing.T) {
	out := Compress([]byte(strings.Repeat("payload under test ", 500)), Options{})
	for _, i := range []int{10, len(out) / 2, len(out) - 5} {
		bad := append([]byte{}, out...)
		bad[i] ^= 0x40
		if _, err := Decompress(bad); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
}

func TestGarbageRejected(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		[]byte("not a bzip2 stream at all"),
		[]byte("BZh"),
		[]byte("BZhX123"),
	} {
		if _, err := Decompress(bad); err == nil {
			t.Fatalf("garbage %q accepted", bad)
		}
	}
}

func TestLevelClamping(t *testing.T) {
	if (Options{Level: 0}).blockLimit() != 100_000 {
		t.Fatal("default level != 1")
	}
	if (Options{Level: 99}).blockLimit() != 900_000 {
		t.Fatal("level not clamped to 9")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		out := Compress(data, Options{})
		got, err := Decompress(out)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStdlibCrossProperty(t *testing.T) {
	f := func(data []byte) bool {
		out := Compress(data, Options{})
		got, err := io.ReadAll(stdbzip2.NewReader(bytes.NewReader(out)))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBWTProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 2000 {
			data = data[:2000]
		}
		last, ptr := bwt(data)
		return bytes.Equal(refInverseBWT(last, ptr), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The benchmarks run on generated book text at the size of one served file
// and at 1 MiB (eleven 100 kB blocks).
var benchSizes = []struct {
	name string
	size int
}{{"28KiB", 28 << 10}, {"1MiB", 1 << 20}}

func BenchmarkCompress(b *testing.B) {
	inputs := []struct {
		name string
		data []byte
	}{
		// One block each of the inputs a rotation sort can go quadratic on;
		// they must stay within an order of magnitude of text per byte.
		{"periodic100k", periodic("thirteen chars", 99_990)},
		{"fibonacci100k", fibonacciWord(99_990)},
	}
	for _, sz := range benchSizes {
		inputs = append(inputs, struct {
			name string
			data []byte
		}{sz.name, textgen.Book(2018, sz.size)})
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Compress(in.data, Options{})
			}
		})
	}
}

func BenchmarkDecompress(b *testing.B) {
	for _, sz := range benchSizes {
		data := textgen.Book(2018, sz.size)
		out := Compress(data, Options{})
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

func TestConcatenatedStreams(t *testing.T) {
	// bunzip2 semantics: concatenated .bz2 streams decompress to the
	// concatenation of their contents.
	a := Compress([]byte("first stream "), Options{})
	b := Compress([]byte("second stream"), Options{})
	got, err := Decompress(append(append([]byte{}, a...), b...))
	if err != nil {
		t.Fatalf("concatenated: %v", err)
	}
	if string(got) != "first stream second stream" {
		t.Fatalf("got %q", got)
	}
	// Three streams, one empty in the middle.
	empty := Compress(nil, Options{})
	triple := append(append(append([]byte{}, a...), empty...), b...)
	got, err = Decompress(triple)
	if err != nil || string(got) != "first stream second stream" {
		t.Fatalf("triple: %q, %v", got, err)
	}
	// The stdlib reader agrees on the same concatenation.
	std, err := io.ReadAll(stdbzip2.NewReader(bytes.NewReader(triple)))
	if err != nil || string(std) != "first stream second stream" {
		t.Fatalf("stdlib concatenated: %q, %v", std, err)
	}
}

func TestTrailingGarbageAfterStreamRejected(t *testing.T) {
	a := Compress([]byte("payload"), Options{})
	bad := append(append([]byte{}, a...), []byte("BZhX")...)
	if _, err := Decompress(bad); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}
