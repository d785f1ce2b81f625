package bzip2x

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"compstor/internal/textgen"
)

// fibonacciWord returns the first n letters of the infinite Fibonacci word
// over {a, b}: no two rotations of a prefix are equal, yet they share
// prefixes about as long as the word allows.
func fibonacciWord(n int) []byte {
	a, b := []byte("a"), []byte("ab")
	for len(b) < n {
		a, b = b, append(append([]byte{}, b...), a...)
	}
	return b[:n]
}

// periodic returns n bytes of word repeated, cut wherever n falls.
func periodic(word string, n int) []byte {
	return bytes.Repeat([]byte(word), n/len(word)+1)[:n]
}

// TestBWTMatchesReference compares last column and origPtr with the
// Manber-Myers sort on the blocks where the two could part: few symbols,
// rotations equal as wholes (which only their index orders), long shared
// prefixes, and what RLE1 makes of long runs.
func TestBWTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	blocks := map[string][]byte{}
	add := func(name string, b []byte) { blocks[fmt.Sprintf("%s/%d", name, len(b))] = b }
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 64, 1000, 4099} {
		for syms := 1; syms <= 4; syms++ {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(200 + rng.Intn(syms)*17)
			}
			add(fmt.Sprintf("random%d", syms), b)
		}
		b := make([]byte, n)
		rng.Read(b)
		add("random256", b)
		// Powers of a word, whole (period | n) and cut short (period ∤ n).
		for _, w := range []string{"a", "ab", "aab", "abcab", "abcdefg", "\x00\xff", "abababc"} {
			add("periodic-"+w, periodic(w, n))
		}
		add("fibonacci", fibonacciWord(n))
	}
	for _, n := range []int{30_000, 99_990} {
		add("fibonacci", fibonacciWord(n))
		add("periodic-ab", periodic("ab", n))
		add("periodic-thirteen", periodic("thirteen chars", n))
		add("book", textgen.Book(7, n)[:n])
	}
	// Runs as RLE1 leaves them: aaaa\x00, aaaa\xff, and a mix.
	for _, src := range [][]byte{
		bytes.Repeat([]byte("aaaa"), 3000),
		bytes.Repeat([]byte{'x'}, 50_000),
		append(bytes.Repeat([]byte{0}, 777), bytes.Repeat([]byte("zzzzzy"), 500)...),
	} {
		rle, _ := rle1Encode(nil, src, 100_000)
		add("rle1", rle)
	}
	c := new(compressor) // one compressor throughout: scratch carries over
	for name, block := range blocks {
		wantLast, wantPtr := refBWT(block)
		gotPtr := c.bwt(block)
		if gotPtr != wantPtr || !bytes.Equal(c.last, wantLast) {
			t.Errorf("%s: origPtr %d, want %d; last columns equal: %v", name, gotPtr, wantPtr, bytes.Equal(c.last, wantLast))
		}
	}
}

func TestBWTMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := new(compressor)
	for i := 0; i < 400; i++ {
		// A few words over a small alphabet, repeated at random: repetitive
		// at every scale.
		words := make([][]byte, 1+rng.Intn(4))
		for j := range words {
			words[j] = make([]byte, 1+rng.Intn(12))
			for k := range words[j] {
				words[j][k] = byte('a' + rng.Intn(1+rng.Intn(3)))
			}
		}
		var block []byte
		for n := rng.Intn(3000); len(block) < n; {
			w := words[rng.Intn(len(words))]
			block = append(block, bytes.Repeat(w, 1+rng.Intn(40))...)
		}
		wantLast, wantPtr := refBWT(block)
		if gotPtr := c.bwt(block); gotPtr != wantPtr || !bytes.Equal(c.last, wantLast) {
			t.Fatalf("block %q: origPtr %d, want %d; last %q, want %q", block, gotPtr, wantPtr, c.last, wantLast)
		}
	}
}

// TestCodeLengthsMatchReference checks the shared package-merge, fed this
// package's weights, against the builder it replaced.
func TestCodeLengthsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		freq := make([]int, 3+rng.Intn(256))
		for j := range freq {
			switch rng.Intn(4) {
			case 0: // unused, as RUNA or RUNB may be
			case 1:
				freq[j] = 1 + rng.Intn(3)
			default:
				freq[j] = int(rng.ExpFloat64() * rng.ExpFloat64() * 300)
			}
		}
		got, want := new(compressor).codeLengths(freq), refCodeLengths(freq, maxCodeLen)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("freq %v:\n got %v\nwant %v", freq, got, want)
		}
	}
}

func BenchmarkBWT(b *testing.B) {
	cases := []struct {
		name  string
		block []byte
	}{
		{"book28KiB", textgen.Book(2018, 28<<10)[:28<<10]},
		{"book100k", textgen.Book(2018, 100_000)[:99_990]},
		{"periodic100k", periodic("thirteen chars", 99_990)},
		{"fibonacci100k", fibonacciWord(99_990)},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			c := new(compressor)
			b.SetBytes(int64(len(bc.block)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.bwt(bc.block)
			}
		})
	}
}
