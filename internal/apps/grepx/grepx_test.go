package grepx

import (
	"bytes"
	"io"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"compstor/internal/apps"
	"compstor/internal/textgen"
)

func mustCompile(t *testing.T, pat string, fold bool) *Regexp {
	t.Helper()
	re, err := Compile(pat, fold)
	if err != nil {
		t.Fatalf("Compile(%q): %v", pat, err)
	}
	return re
}

func TestLiteralMatching(t *testing.T) {
	re := mustCompile(t, "needle", false)
	if re.literal == nil {
		t.Fatal("plain literal did not take the BMH fast path")
	}
	cases := map[string]bool{
		"a needle in a haystack": true,
		"needle":                 true,
		"needl":                  false,
		"":                       false,
		"NEEDLE":                 false,
		"xxneedlexx":             true,
	}
	for line, want := range cases {
		if got := re.MatchLine([]byte(line)); got != want {
			t.Errorf("MatchLine(%q) = %v, want %v", line, got, want)
		}
	}
}

func TestCaseFolding(t *testing.T) {
	re := mustCompile(t, "Needle", true)
	for _, line := range []string{"NEEDLE", "needle", "NeEdLe in stack"} {
		if !re.MatchLine([]byte(line)) {
			t.Errorf("fold: %q not matched", line)
		}
	}
	re2 := mustCompile(t, "n[aeiou]+dle", true)
	if !re2.MatchLine([]byte("NOODLE")) {
		t.Error("folded class failed")
	}
}

func TestRegexAgainstStdlib(t *testing.T) {
	// Our engine must agree with the reference engine on its supported
	// subset.
	patterns := []string{
		"a", "abc", "a.c", "a*", "ab*c", "a+b", "colou?r", "(ab)+",
		"a|b", "abc|def|ghi", "[abc]x", "[a-m]+z", "[^0-9]+", "x(y|z)*w",
		"(a|b)(c|d)", "a.*z", "lin.s", "[A-Z][a-z]*",
	}
	lines := []string{
		"", "a", "b", "abc", "aac", "abbbc", "color", "colour", "ababab",
		"def", "ghi", "xz", "mmmz", "hello world", "x y z w", "xyzyw",
		"abcd", "a---z", "lines", "links", "Title case Words", "0123",
	}
	for _, pat := range patterns {
		mine := mustCompile(t, pat, false)
		std := regexp.MustCompile(pat)
		for _, line := range lines {
			want := std.MatchString(line)
			got := mine.MatchLine([]byte(line))
			if got != want {
				t.Errorf("pattern %q line %q: got %v, stdlib %v", pat, line, got, want)
			}
		}
	}
}

func TestAnchors(t *testing.T) {
	cases := []struct {
		pat  string
		line string
		want bool
	}{
		{"^abc", "abcdef", true},
		{"^abc", "xabc", false},
		{"abc$", "xyzabc", true},
		{"abc$", "abcx", false},
		{"^abc$", "abc", true},
		{"^abc$", "abcd", false},
		{"^a.c$", "abc", true},
		{"^$", "", true},
		{"^$", "x", false},
	}
	for _, c := range cases {
		re := mustCompile(t, c.pat, false)
		if got := re.MatchLine([]byte(c.line)); got != c.want {
			t.Errorf("pattern %q line %q = %v, want %v", c.pat, c.line, got, c.want)
		}
	}
}

func TestBadPatterns(t *testing.T) {
	for _, pat := range []string{"(", ")", "a(b", "[abc", "*a", "+", "a\\"} {
		if _, err := Compile(pat, false); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", pat)
		}
	}
}

func TestNoBacktrackingBlowup(t *testing.T) {
	// The classic exponential killer for backtracking engines.
	re := mustCompile(t, "(a|aa)+b", false)
	line := bytes.Repeat([]byte{'a'}, 2000) // no trailing b
	if re.MatchLine(line) {
		t.Fatal("false positive")
	}
}

// Case-sensitive literals go through bytes.Index, `-i` ones through the
// folding Horspool loop that used to serve both. On text of one case the two
// must find the same leftmost occurrence, and that is the stdlib's.
func TestBMHAgainstIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "abc .-"[rng.Intn(6)]
		}
		return b
	}
	for i := 0; i < 3000; i++ {
		pat, text := word(1+rng.Intn(5)), word(rng.Intn(60))
		re := mustCompile(t, regexp.QuoteMeta(string(pat)), false)
		if !bytes.Equal(re.literal, pat) || re.bmh != nil {
			t.Fatalf("%q did not compile to a case-sensitive literal", pat)
		}
		want := bytes.Index(text, pat)
		if got := re.findLiteral(text); got != want {
			t.Fatalf("findLiteral(%q, %q) = %d, want %d", text, pat, got, want)
		}
		if got := newBMH(pat).find(text); got != want {
			t.Fatalf("Horspool(%q, %q) = %d, want %d", text, pat, got, want)
		}
		start, end, ok := re.FindIndex(text, 0)
		if ok != (want >= 0) || ok && (start != want || end != want+len(pat)) {
			t.Fatalf("FindIndex(%q, %q) = %d,%d,%v, want start %d", text, pat, start, end, ok, want)
		}
	}
}

func TestBMHFolded(t *testing.T) {
	s := newBMH([]byte("AbC"))
	if s.find([]byte("xxabcxx")) != 2 {
		t.Fatal("folded BMH missed match")
	}
	if s.find([]byte("xxABYxx")) != -1 {
		t.Fatal("folded BMH false positive")
	}
}

// runGrep executes the Grep program over an in-memory stdin.
func runGrep(t *testing.T, stdin string, args ...string) (string, int) {
	t.Helper()
	var out bytes.Buffer
	ctx := &apps.Context{
		Stdin:  strings.NewReader(stdin),
		Stdout: &out,
		Stderr: &bytes.Buffer{},
	}
	err := Grep{}.Run(ctx, args)
	return out.String(), apps.ExitCode(err)
}

func TestGrepStdinBasic(t *testing.T) {
	out, code := runGrep(t, "alpha\nbeta\ngamma\nalphabet\n", "alpha")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if out != "alpha\nalphabet\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestGrepCount(t *testing.T) {
	out, code := runGrep(t, "x\ny\nx\n", "-c", "x")
	if code != 0 || out != "2\n" {
		t.Fatalf("out=%q code=%d", out, code)
	}
}

func TestGrepInvert(t *testing.T) {
	out, _ := runGrep(t, "keep\ndrop\nkeep\n", "-v", "drop")
	if out != "keep\nkeep\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestGrepNumbered(t *testing.T) {
	out, _ := runGrep(t, "a\nb\na\n", "-n", "a")
	if out != "1:a\n3:a\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestGrepNoMatchExitStatus(t *testing.T) {
	_, code := runGrep(t, "nothing here\n", "zebra")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

func TestGrepBadUsage(t *testing.T) {
	_, code := runGrep(t, "", "-q", "pat")
	if code != 2 {
		t.Fatalf("unknown flag exit = %d, want 2", code)
	}
	_, code = runGrep(t, "")
	if code != 2 {
		t.Fatalf("missing pattern exit = %d, want 2", code)
	}
}

func TestGrepCombinedFlags(t *testing.T) {
	out, code := runGrep(t, "Foo\nbar\nFOO\n", "-ic", "foo")
	if code != 0 || out != "2\n" {
		t.Fatalf("out=%q code=%d", out, code)
	}
}

// Property: on random lowercase text, our full pipeline agrees with
// stdlib's regexp for a mixed pattern set.
func TestGrepEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pats := []string{"ab", "a+b", "[xyz]+", "q|zz", "m.n"}
	f := func(seed uint32) bool {
		r := rand.New(rand.NewSource(int64(seed) + rng.Int63()))
		var line []byte
		for i := 0; i < 40; i++ {
			line = append(line, byte('a'+r.Intn(26)))
		}
		for _, pat := range pats {
			mine, err := Compile(pat, false)
			if err != nil {
				return false
			}
			if mine.MatchLine(line) != regexp.MustCompile(pat).Match(line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkGrepCount is the paper's grep workload, `grep -c the`, as a
// stream filter over generated book text at the size of one served file
// and at 1 MiB.
func BenchmarkGrepCount(b *testing.B) {
	for _, sz := range []struct {
		name string
		size int
	}{{"28KiB", 28 << 10}, {"1MiB", 1 << 20}} {
		data := textgen.Book(2018, sz.size)
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := &apps.Context{Stdin: bytes.NewReader(data), Stdout: io.Discard, Stderr: io.Discard}
				if err := (Grep{}).Run(ctx, []string{"-c", "the"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLiteralSearch(b *testing.B) {
	line := []byte(strings.Repeat("the quick brown fox ", 50))
	re, _ := Compile("lazy", false)
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		re.MatchLine(line)
	}
}

func BenchmarkRegexSearch(b *testing.B) {
	line := []byte(strings.Repeat("the quick brown fox ", 50))
	re, _ := Compile("l[aeiou]zy|hound", false)
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		re.MatchLine(line)
	}
}
