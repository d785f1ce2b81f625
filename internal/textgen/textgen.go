// Package textgen deterministically synthesises the evaluation corpus: the
// paper uses "348 compressed big text files ... books in different fields
// which are transformed to plain text files" (11.3 GB total). Real book
// text is not redistributable here, so the generator produces English-like
// prose with a Zipf-distributed vocabulary — matching the compressibility
// and line structure the workloads care about — at a configurable scale.
package textgen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
)

// Config controls corpus synthesis.
type Config struct {
	// Seed makes the corpus reproducible.
	Seed int64
	// Books is the number of files (the paper: 348).
	Books int
	// MeanBookBytes scales the book sizes, drawn uniformly in 0.5–2× it
	// (mean 1.25×). The paper's corpus averages ~32 MB/book; benches default
	// much smaller and report the scale factor.
	MeanBookBytes int
}

// File is one generated book.
type File struct {
	Name string
	Data []byte
}

// vocabulary is built once from syllables; word i is sampled with
// probability ∝ 1/(i+2)^1.05 (Zipf-like, matching natural text).
var vocabulary = buildVocabulary()

func buildVocabulary() []string {
	onsets := []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "st", "tr", "ch", "sh", "th", "pl", "gr"}
	nuclei := []string{"a", "e", "i", "o", "u", "ai", "ea", "ou", "io"}
	codas := []string{"", "n", "r", "s", "t", "l", "m", "nd", "st", "ck", "ng"}
	rng := rand.New(rand.NewSource(42))
	seen := make(map[string]bool)
	var words []string
	// Common function words first (they get the highest Zipf ranks).
	for _, w := range []string{"the", "of", "and", "a", "to", "in", "is", "was", "he", "for", "it", "with", "as", "his", "on", "be", "at", "by", "had", "not", "are", "but", "from", "or", "have", "an", "they", "which", "one", "you"} {
		words = append(words, w)
		seen[w] = true
	}
	for len(words) < 4000 {
		syls := 1 + rng.Intn(3)
		word := ""
		for s := 0; s < syls; s++ {
			// Operands are evaluated left to right: onset, nucleus, coda.
			word += onsets[rng.Intn(len(onsets))] + nuclei[rng.Intn(len(nuclei))] + codas[rng.Intn(len(codas))]
		}
		if !seen[word] {
			seen[word] = true
			words = append(words, word)
		}
	}
	return words
}

const wordPad = 24 // the width of every word's copy in padded; no word is longer

// padded holds each vocabulary word zero-padded to wordPad bytes, so Book
// copies it with one fixed-width store and then advances by its length.
var padded = func() [][wordPad]byte {
	ws := make([][wordPad]byte, len(vocabulary))
	for i, w := range vocabulary {
		if copy(ws[i][:], w) < len(w) {
			panic(fmt.Sprintf("textgen: word %q is longer than wordPad", w))
		}
	}
	return ws
}()

// zipfRank maps a uniform u in [0,1) to a vocabulary index with a Zipf-ish
// distribution: the inverse CDF of p(i) ~ i^-1.05 approximated by a u^k
// stretch. It defines the corpus; Book samples it through zipfTable, which
// is built from this very expression.
func zipfRank(u float64) int {
	return min(int(math.Pow(u, 3.2)*float64(len(vocabulary))), len(vocabulary)-1)
}

// guideSize is the number of equal slices of [0,1) the guide table indexes;
// a power of two, so u*guideSize is exact. The steps of zipfRank are densest
// near 1, about one per five slices there, so a pick seldom walks step.
const guideSize = 1 << 16

// zipfTable is zipfRank without the math.Pow per word: zipfRank is a
// monotone step function of u, so the float64 at which each step happens
// determines it.
type zipfTable struct {
	step  []float64         // step[i]: the least u with zipfRank(u) >= i; +Inf past the last word
	guide [guideSize]uint16 // guide[j] = zipfRank(j/guideSize)
}

// zipfSteps returns the table, built on first use (some 15 ms: bisection
// over the float bits, one Pow per probe).
var zipfSteps = sync.OnceValue(func() *zipfTable {
	t := &zipfTable{step: make([]float64, len(vocabulary)+1)}
	lo := uint64(0) // bits of a u known to rank below i; non-negative floats order as their bits
	for i := 1; i < len(vocabulary); i++ {
		hi := math.Float64bits(1)
		for lo+1 < hi {
			if mid := lo + (hi-lo)/2; zipfRank(math.Float64frombits(mid)) >= i {
				hi = mid
			} else {
				lo = mid
			}
		}
		t.step[i] = math.Float64frombits(hi)
	}
	t.step[len(vocabulary)] = math.Inf(1)
	for j := range t.guide {
		t.guide[j] = uint16(zipfRank(float64(j) / guideSize))
	}
	return t
})

// pick returns zipfRank(u) for u in [0,1).
func (t *zipfTable) pick(u float64) int {
	i := int(t.guide[int(u*guideSize)])
	for u >= t.step[i+1] {
		i++
	}
	return i
}

// Book generates one book of roughly approxBytes of prose.
func Book(seed int64, approxBytes int) []byte {
	rng := rand.New(rand.NewSource(seed))
	zipf := zipfSteps()
	b := make([]byte, 0, approxBytes+1024)
	for chapter, heading := int64(0), true; ; heading = rng.Intn(40) == 0 {
		if heading {
			chapter++
			b = append(strconv.AppendInt(append(b, "CHAPTER "...), chapter, 10), "\n\n"...)
		}
		if len(b) >= approxBytes {
			return b
		}
		for s := 3 + rng.Intn(5); s > 0; s-- {
			n := 6 + rng.Intn(14)
			for w := 0; w < n; w++ {
				i := zipf.pick(rng.Float64())
				if cap(b)-len(b) < wordPad {
					b = slices.Grow(b, wordPad)
				}
				at := len(b)
				*(*[wordPad]byte)(b[at : at+wordPad]) = padded[i]
				b = b[:at+len(vocabulary[i])]
				if w == 0 {
					b[at] -= 'a' - 'A'
				}
				if w < n-1 {
					if w > 2 && rng.Intn(12) == 0 {
						b = append(b, ',')
					}
					b = append(b, ' ')
				}
			}
			b = append(b, ". "...)
		}
		b = append(b, "\n\n"...)
	}
}

// Corpus generates the whole book set. Book sizes are drawn uniformly in
// 0.5–2× MeanBookBytes, so they average 1.25× it.
func Corpus(cfg Config) []File {
	if cfg.Books <= 0 || cfg.MeanBookBytes <= 0 {
		panic("textgen: invalid corpus config")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]File, cfg.Books)
	for i := range out {
		size := int(float64(cfg.MeanBookBytes) * (0.5 + rng.Float64()*1.5))
		out[i] = File{
			Name: fmt.Sprintf("books/book%03d.txt", i),
			Data: Book(cfg.Seed+int64(i)*7919, size),
		}
	}
	return out
}

// TotalBytes sums the corpus size.
func TotalBytes(files []File) int64 {
	var n int64
	for _, f := range files {
		n += int64(len(f.Data))
	}
	return n
}
