package awkx

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/textgen"
)

// The inputs are generated book text at the size of one served file, where
// per-run fixed cost shows, and at 1 MiB.
var benchSizes = []struct {
	name string
	size int
}{{"28KiB", 28 << 10}, {"1MiB", 1 << 20}}

func benchRun(b *testing.B, prog string, input func(size int) []byte) {
	b.Helper()
	for _, sz := range benchSizes {
		data := input(sz.size)
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := &apps.Context{Stdin: bytes.NewReader(data), Stdout: io.Discard, Stderr: io.Discard}
				if err := (Gawk{}).Run(ctx, []string{prog}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func book(size int) []byte { return textgen.Book(2018, size) }

// numberTable is three numeric columns per line.
func numberTable(size int) []byte {
	var sb strings.Builder
	for i := 0; sb.Len() < size; i++ {
		sb.WriteString(strconv.Itoa(i%977) + ".5 " + strconv.Itoa(i%31) + " " + strconv.Itoa(7*i) + "\n")
	}
	return []byte(sb.String())
}

// wordFreqProg is the paper's gawk workload, as bench/ serves it.
const (
	fieldSplitProg = `{ n += NF } END { print n }`
	wordFreqProg   = `{ for (i = 1; i <= NF; i++) freq[$i]++ } END { n = 0; for (w in freq) n++; print n }`
	regexMatchProg = `/the/ { n++ } END { print n }`
	arithmeticProg = `{ s += $1 * $2 + $3 / 2 } $1 > $2 { n++ } END { printf "%.1f %d\n", s, n }`
)

func BenchmarkFieldSplit(b *testing.B) {
	benchRun(b, fieldSplitProg, book)
}

func BenchmarkWordFrequency(b *testing.B) {
	benchRun(b, wordFreqProg, book)
}

func BenchmarkRegexMatch(b *testing.B) {
	benchRun(b, regexMatchProg, book)
}

func BenchmarkArithmetic(b *testing.B) {
	benchRun(b, arithmeticProg, numberTable)
}
