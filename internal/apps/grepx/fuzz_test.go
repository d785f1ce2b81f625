package grepx

import (
	"bytes"
	"testing"
)

// asciiLower folds A-Z only, byte-for-byte, matching the engine's fold rule.
func asciiLower(b []byte) []byte {
	out := append([]byte(nil), b...)
	for i, c := range out {
		if c >= 'A' && c <= 'Z' {
			out[i] = c + 'a' - 'A'
		}
	}
	return out
}

// FuzzGrepMatch throws arbitrary patterns and lines at the regex engine and
// checks the invariants that hold for every compilable pattern: matching
// never panics, FindIndex returns a well-formed in-bounds range exactly
// when MatchLine reports a match, the BMH literal fast path agrees with
// bytes.Contains, and case-folded literal matching is consistent with
// folding the inputs by hand.
func FuzzGrepMatch(f *testing.F) {
	patterns := []string{
		"a", "abc", "a.c", "a*", "ab*c", "a+b", "colou?r", "(ab)+",
		"a|b", "abc|def|ghi", "[abc]x", "[a-m]+z", "[^0-9]+", "x(y|z)*w",
		"needle", "the", "a{2,4}b", "^a|b", "(x|^y)z$",
	}
	lines := []string{
		"", "a", "abc", "a needle in a haystack", "colour",
		"the quick brown fox", "ababab", "0123", "NEEDLE",
	}
	for i, pat := range patterns {
		f.Add(pat, []byte(lines[i%len(lines)]), false)
		f.Add(pat, []byte(lines[(i+3)%len(lines)]), true)
	}
	f.Fuzz(func(t *testing.T, pattern string, line []byte, fold bool) {
		if len(pattern) > 256 || len(line) > 1<<16 {
			return
		}
		re, err := Compile(pattern, fold)
		if err != nil {
			return // invalid pattern: rejection is the correct behaviour
		}
		matched := re.MatchLine(line)
		start, end, ok := re.FindIndex(line, 0)
		if ok != matched {
			t.Fatalf("pattern %q line %q: MatchLine=%v but FindIndex ok=%v",
				pattern, line, matched, ok)
		}
		if ok && (start < 0 || end < start || end > len(line)) {
			t.Fatalf("pattern %q line %q: FindIndex range [%d,%d) out of bounds (len %d)",
				pattern, line, start, end, len(line))
		}
		if lit := re.literal; lit != nil {
			hay, needle := line, lit
			if fold {
				// The engine folds ASCII only (bytes.ToLower would also
				// rewrite invalid UTF-8, which grep does not).
				hay, needle = asciiLower(line), asciiLower(lit)
			}
			if want := bytes.Contains(hay, needle); matched != want {
				t.Fatalf("literal %q line %q fold=%v: MatchLine=%v, bytes.Contains=%v",
					lit, line, fold, matched, want)
			}
		}
	})
}
