package textgen

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"compstor/internal/apps/gzipx"
)

func TestBookDeterministic(t *testing.T) {
	a := Book(7, 10_000)
	b := Book(7, 10_000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different books")
	}
	c := Book(8, 10_000)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical books")
	}
}

func TestBookSizeApproximate(t *testing.T) {
	b := Book(1, 50_000)
	if len(b) < 50_000 || len(b) > 60_000 {
		t.Fatalf("book size %d, want ~50000", len(b))
	}
}

func TestBookLooksLikeProse(t *testing.T) {
	b := string(Book(3, 20_000))
	if !strings.Contains(b, "CHAPTER 1") {
		t.Fatal("no chapter heading")
	}
	if !strings.Contains(b, ". ") {
		t.Fatal("no sentences")
	}
	words := strings.Fields(b)
	if len(words) < 2000 {
		t.Fatalf("only %d words", len(words))
	}
	// Zipf vocabulary: "the" should be frequent.
	theCount := 0
	for _, w := range words {
		if w == "the" || w == "The" {
			theCount++
		}
	}
	if float64(theCount)/float64(len(words)) < 0.01 {
		t.Fatalf("'the' frequency %.4f; vocabulary not Zipf-like", float64(theCount)/float64(len(words)))
	}
}

func TestBookIsCompressible(t *testing.T) {
	// The corpus must behave like text for the compression workloads:
	// gzip should roughly halve it (the paper's books compress similarly).
	b := Book(5, 100_000)
	z, err := gzipx.Compress(b)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(z)) / float64(len(b))
	if ratio > 0.6 {
		t.Fatalf("compression ratio %.2f; corpus not text-like", ratio)
	}
	if ratio < 0.1 {
		t.Fatalf("compression ratio %.2f; corpus too repetitive", ratio)
	}
}

func TestCorpusShape(t *testing.T) {
	cfg := Config{Seed: 1, Books: 20, MeanBookBytes: 4000}
	files := Corpus(cfg)
	if len(files) != 20 {
		t.Fatalf("%d files", len(files))
	}
	names := map[string]bool{}
	for _, f := range files {
		if names[f.Name] {
			t.Fatalf("duplicate name %s", f.Name)
		}
		names[f.Name] = true
		if len(f.Data) < 1000 {
			t.Fatalf("%s only %d bytes", f.Name, len(f.Data))
		}
	}
	if TotalBytes(files) < 20*2000 {
		t.Fatal("corpus too small")
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a := Corpus(Config{Seed: 9, Books: 5, MeanBookBytes: 2000})
	b := Corpus(Config{Seed: 9, Books: 5, MeanBookBytes: 2000})
	for i := range a {
		if a[i].Name != b[i].Name || !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatal("corpus not deterministic")
		}
	}
}

// The table must pick exactly what the defining expression picks: at every
// step of the function and its float64 neighbours, where an off-by-one-ulp
// table would show, and on the draws Book actually makes.
func TestZipfTableMatchesExpression(t *testing.T) {
	tab := zipfSteps()
	for i := 1; i < len(vocabulary); i++ {
		bits := math.Float64bits(tab.step[i])
		for d := -3; d <= 3; d++ {
			u := math.Float64frombits(uint64(int64(bits) + int64(d)))
			if got, want := tab.pick(u), zipfRank(u); got != want {
				t.Fatalf("step %d%+d ulp (u=%v): table picks %d, expression %d", i, d, u, got, want)
			}
		}
	}
	for _, u := range []float64{0, math.SmallestNonzeroFloat64, 1.0 / guideSize, math.Nextafter(1, 0)} {
		if got, want := tab.pick(u), zipfRank(u); got != want {
			t.Fatalf("u=%v: table picks %d, expression %d", u, got, want)
		}
	}
	draws := 10_000_000
	if testing.Short() {
		draws = 200_000
	}
	rng := rand.New(rand.NewSource(20181))
	for n := 0; n < draws; n++ {
		u := rng.Float64()
		if got, want := tab.pick(u), zipfRank(u); got != want {
			t.Fatalf("draw %d (u=%v): table picks %d, expression %d", n, u, got, want)
		}
	}
}

// Book bytes recorded with the math.Pow-per-word generator, before the table;
// the last two, recorded with bookRef, are the benchmark's own inputs: the
// big file scan stages on device 0, and serve_mix's file.
func TestBookPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		size int
		sum  string
	}{
		{7, 10000, "80f3b293cfb47621e140f49d09560651bca78a660d0a1b8981924c977f4c671f"},
		{2018, 300000, "d44eeca6bcd05706076565b3c2637a52544caa8e0c65e413d94573c4c429bfb3"},
		{1, 1048576, "4358e63ae24aa11f5977908fe09b81c2372e03ce11a3125930f067cc20652d87"},
		{-5, 77777, "b92888e2c73d2cbd3c16d49e6820cc219916c587ff7581a6455fb161baf7d82a"},
		{424242, 4194304, "21e00686127d2facfa27e1c473162962c0a954b3afc75e4bfb66968b4d1e9e29"},
		{3018, 16 << 20, "dfc3bce15e6f31b0e6528532b6dae0998cc1470105aebcdf10e8559b56774b6b"},
		{2018, 28 << 10, "30651f2bd9ff240ed44ddf7079f523c6ba20299fc656f461c713a5189a108f43"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(Book(c.seed, c.size))); got != c.sum {
			t.Errorf("Book(%d, %d) = %s, pinned %s", c.seed, c.size, got, c.sum)
		}
	}
	h := sha256.New()
	for _, f := range Corpus(Config{Seed: 2018, Books: 40, MeanBookBytes: 20000}) {
		h.Write([]byte(f.Name))
		h.Write(f.Data)
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "36877521e16f12ce947bb4f7e07a033519dede54e4612c62cc30bd1c02aecdee"; got != want {
		t.Errorf("Corpus = %s, pinned %s", got, want)
	}
}

// bookRef is the generator Book replaced, kept as its oracle: it builds in a
// bytes.Buffer, formats chapter lines with fmt and allocates a string per
// capitalised word. The RNG draws are the definition of the corpus.
func bookRef(seed int64, approxBytes int) []byte {
	rng := rand.New(rand.NewSource(seed))
	zipf := zipfSteps()
	var out bytes.Buffer
	out.Grow(approxBytes + 1024)
	chapter := 1
	fmt.Fprintf(&out, "CHAPTER %d\n\n", chapter)
	sentenceLen := func() int { return 6 + rng.Intn(14) }
	paraSentences := func() int { return 3 + rng.Intn(5) }
	for out.Len() < approxBytes {
		sentences := paraSentences()
		for s := 0; s < sentences; s++ {
			n := sentenceLen()
			for w := 0; w < n; w++ {
				word := vocabulary[zipf.pick(rng.Float64())]
				if w == 0 {
					word = string(word[0]-32) + word[1:]
				}
				out.WriteString(word)
				if w < n-1 {
					if w > 2 && rng.Intn(12) == 0 {
						out.WriteByte(',')
					}
					out.WriteByte(' ')
				}
			}
			out.WriteString(". ")
		}
		out.WriteString("\n\n")
		if rng.Intn(40) == 0 {
			chapter++
			fmt.Fprintf(&out, "CHAPTER %d\n\n", chapter)
		}
	}
	return out.Bytes()
}

// Book writes bookRef's bytes: at size 0, around the first paragraph's end
// and around every chapter break of a long book, where the stopping rule
// meets the heading draw, and at random seeds and sizes.
func TestBookMatchesRef(t *testing.T) {
	check := func(seed int64, size int) {
		t.Helper()
		if got, want := Book(seed, size), bookRef(seed, size); !bytes.Equal(got, want) {
			t.Fatalf("Book(%d, %d): %d bytes, not bookRef's %d", seed, size, len(got), len(want))
		}
	}
	const seed = 5
	long := string(bookRef(seed, 400_000))
	head := len("CHAPTER 1\n\n")
	para := head + strings.Index(long[head:], "\n\n") + 2
	sizes := []int{0, 1, head - 1, head, head + 1, para - 1, para, para + 1}
	breaks := 0
	for k := 2; ; k++ {
		heading := fmt.Sprintf("CHAPTER %d\n\n", k)
		at := strings.Index(long, heading)
		if at < 0 {
			break
		}
		breaks++
		sizes = append(sizes, at-1, at, at+1, at+len(heading), at+len(heading)+1)
	}
	if breaks < 10 {
		t.Fatalf("only %d chapter breaks in %d bytes", breaks, len(long))
	}
	for _, size := range sizes {
		check(seed, size)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		size := rng.Intn(64 << 10)
		if i%50 == 0 {
			size = rng.Intn(2 << 20)
		}
		check(rng.Int63()-1<<62, size)
	}
}

func BenchmarkBook(b *testing.B) {
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		Book(int64(i), 1<<20)
	}
}
