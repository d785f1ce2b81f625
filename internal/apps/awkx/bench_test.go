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
		b.Run(sz.name, func(b *testing.B) { benchGawk(b, Gawk{}, prog, input(sz.size)) })
	}
}

func benchGawk(b *testing.B, gawk Gawk, prog string, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := &apps.Context{Stdin: bytes.NewReader(data), Stdout: io.Discard, Stderr: io.Discard}
		if err := gawk.Run(ctx, []string{prog}); err != nil {
			b.Fatal(err)
		}
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

// BenchmarkWordFrequency's repeat case is serve_mix's: one argv over one
// 28 KiB file through a memo. Two runs before the timer record the tape, so
// every timed run (the one of a -benchtime=1x smoke too) replays it.
func BenchmarkWordFrequency(b *testing.B) {
	benchRun(b, wordFreqProg, book)
	b.Run("repeat", func(b *testing.B) {
		gawk, data := Program(apps.NewCodecMemo()), book(28<<10)
		for i := 0; i < 2; i++ {
			if err := gawk.Run(&apps.Context{Stdin: bytes.NewReader(data), Stdout: io.Discard}, []string{wordFreqProg}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		benchGawk(b, gawk, wordFreqProg, data)
	})
}

func BenchmarkRegexMatch(b *testing.B) {
	benchRun(b, regexMatchProg, book)
}

func BenchmarkArithmetic(b *testing.B) {
	benchRun(b, arithmeticProg, numberTable)
}
