package grepx

import (
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

func TestFindIndexAgainstStdlib(t *testing.T) {
	patterns := []string{
		"abc", "a+", "a.c", "[0-9]+", "colou?r", "(ab)+", "x|yz", "a.*z",
	}
	lines := []string{
		"", "abc", "xxabcxx", "aaa", "a-c", "phone 555 1234", "color colour",
		"ababab", "x", "yz", "a trip to the zoo", "zzz",
	}
	for _, pat := range patterns {
		mine := mustCompile(t, pat, false)
		std := regexp.MustCompile(pat)
		for _, line := range lines {
			want := std.FindStringIndex(line)
			s, e, ok := mine.FindIndex([]byte(line), 0)
			if (want == nil) != !ok {
				t.Errorf("pattern %q line %q: ok=%v, stdlib %v", pat, line, ok, want)
				continue
			}
			if want != nil && (s != want[0] || e != want[1]) {
				t.Errorf("pattern %q line %q: [%d,%d), stdlib %v", pat, line, s, e, want)
			}
		}
	}
}

// An anchor binds only its own top-level branch (POSIX leftmost-longest is
// the stdlib's CompilePOSIX), and a search resumed past the start of the
// line never re-anchors ^ there.
func TestAnchoredBranches(t *testing.T) {
	lines := []string{"", "a", "abc", "cab", "xbxbx", "bab", "ba", "a|b"}
	for _, pat := range []string{"^a|b", "b|$", "a$|^b", "^ab|b(c|x)", "[|^]|a$"} {
		mine := mustCompile(t, pat, false)
		std := regexp.MustCompilePOSIX(pat)
		for _, line := range lines {
			want := std.FindStringIndex(line)
			s, e, ok := mine.FindIndex([]byte(line), 0)
			if ok != (want != nil) || ok && (s != want[0] || e != want[1]) || ok != mine.MatchLine([]byte(line)) {
				t.Errorf("pattern %q line %q: [%d,%d) %v, stdlib %v", pat, line, s, e, ok, want)
			}
		}
	}
	if _, _, ok := mustCompile(t, "^a", false).FindIndex([]byte("aaa"), 1); ok {
		t.Error("^a matched past the start of the line")
	}
	if s, e, ok := mustCompile(t, "^a|b", false).FindIndex([]byte("aab"), 1); !ok || s != 2 || e != 3 {
		t.Errorf("^a|b from 1 in aab: [%d,%d) %v, want [2,3)", s, e, ok)
	}
}

func TestFindIndexLeftmostLongest(t *testing.T) {
	// POSIX semantics: leftmost match, extended as far as possible.
	re := mustCompile(t, "ab*", false)
	s, e, ok := re.FindIndex([]byte("xxabbbyab"), 0)
	if !ok || s != 2 || e != 6 {
		t.Fatalf("got [%d,%d) ok=%v, want [2,6)", s, e, ok)
	}
	// Note: Go's regexp is leftmost-first (PCRE-ish); for alternations our
	// leftmost-longest can differ, which is the POSIX grep behaviour.
	re2 := mustCompile(t, "a|ab", false)
	_, e2, _ := re2.FindIndex([]byte("ab"), 0)
	if e2 != 2 {
		t.Fatalf("leftmost-longest alternation end = %d, want 2", e2)
	}
}

func TestFindIndexAnchored(t *testing.T) {
	re := mustCompile(t, "^ab", false)
	if _, _, ok := re.FindIndex([]byte("xab"), 0); ok {
		t.Fatal("head-anchored matched mid-line")
	}
	if s, e, ok := re.FindIndex([]byte("abx"), 0); !ok || s != 0 || e != 2 {
		t.Fatalf("head-anchored: [%d,%d) ok=%v", s, e, ok)
	}
	re2 := mustCompile(t, "ab$", false)
	if _, _, ok := re2.FindIndex([]byte("abx"), 0); ok {
		t.Fatal("tail-anchored matched mid-line")
	}
	if s, e, ok := re2.FindIndex([]byte("xab"), 0); !ok || s != 1 || e != 3 {
		t.Fatalf("tail-anchored: [%d,%d) ok=%v", s, e, ok)
	}
}

func TestFindIndexLiteralFastPath(t *testing.T) {
	re := mustCompile(t, "needle", false)
	s, e, ok := re.FindIndex([]byte("hay needle hay"), 0)
	if !ok || s != 4 || e != 10 {
		t.Fatalf("[%d,%d) ok=%v", s, e, ok)
	}
	if _, _, ok := re.FindIndex([]byte("no match"), 0); ok {
		t.Fatal("false positive")
	}
}

// Property: FindIndex agrees with MatchLine on match existence, and the
// reported range actually matches.
func TestFindIndexConsistencyProperty(t *testing.T) {
	pats := []string{"ab", "a+b", "[xyz]+", "m.n"}
	f := func(input []byte) bool {
		line := make([]byte, 0, len(input))
		for _, b := range input {
			line = append(line, 'a'+b%26)
		}
		for _, pat := range pats {
			re, err := Compile(pat, false)
			if err != nil {
				return false
			}
			s, e, ok := re.FindIndex(line, 0)
			if ok != re.MatchLine(line) {
				return false
			}
			if ok {
				if s < 0 || e > len(line) || s > e {
					return false
				}
				if !re.MatchLine(line[s:e]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// A search over a long record costs one simulation per FindIndex call, not
// one per branch and start position, so a gsub or split whose pattern has a
// rare branch stays linear in the record.
func TestFindIndexLongRecord(t *testing.T) {
	line := []byte(strings.Repeat("a", 1<<12) + ";")
	for _, pat := range []string{"a|z[0-9]", ",|$", ",|;", "^b|;"} {
		mine := mustCompile(t, pat, false)
		want := regexp.MustCompilePOSIX(pat).FindIndex(line)
		if s, e, ok := mine.FindIndex(line, 0); !ok || s != want[0] || e != want[1] {
			t.Errorf("pattern %q: [%d,%d) %v, stdlib %v", pat, s, e, ok, want)
		}
		if n := testing.AllocsPerRun(10, func() { mine.FindIndex(line, 0) }); n > 4 {
			t.Errorf("pattern %q: %v allocs per search of a %d-byte record, want ≤ 4", pat, n, len(line))
		}
	}
}

func BenchmarkFindAllRareBranch(b *testing.B) {
	line := []byte(strings.Repeat("a", 1<<14))
	re, _ := Compile("a|z[0-9]", false)
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		for at := 0; ; {
			_, e, ok := re.FindIndex(line, at)
			if !ok {
				break
			}
			at = e
		}
	}
}
