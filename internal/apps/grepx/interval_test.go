package grepx

import (
	"regexp"
	"testing"
)

func TestIntervalRepetition(t *testing.T) {
	cases := []struct {
		pat  string
		line string
		want bool
	}{
		{"a{3}", "aa", false},
		{"a{3}", "aaa", true},
		{"a{3}", "xxaaaxx", true},
		{"^a{3}$", "aaa", true},
		{"^a{3}$", "aaaa", false},
		{"a{2,4}", "a", false},
		{"a{2,4}", "aa", true},
		{"a{2,}", "a", false},
		{"a{2,}", "aaaaaa", true},
		{"(ab){2}", "abab", true},
		{"(ab){2}", "abxab", false},
		{"[0-9]{3}-[0-9]{4}", "call 555-1234 now", true},
		{"[0-9]{3}-[0-9]{4}", "call 55-1234 now", false},
		{"a{0,2}b", "b", true},
		{"a{0,2}b", "aaab", true}, // unanchored: matches "aab" suffix
	}
	for _, c := range cases {
		re := mustCompile(t, c.pat, false)
		if got := re.MatchLine([]byte(c.line)); got != c.want {
			t.Errorf("pattern %q line %q = %v, want %v", c.pat, c.line, got, c.want)
		}
	}
}

func TestIntervalAgainstStdlib(t *testing.T) {
	patterns := []string{"a{2}", "a{2,3}", "a{1,}", "(xy){2,3}", "[ab]{2}c"}
	lines := []string{"", "a", "aa", "aaa", "aaaa", "xy", "xyxy", "xyxyxy", "abc", "bac", "aac", "c"}
	for _, pat := range patterns {
		mine := mustCompile(t, pat, false)
		std := regexp.MustCompile(pat)
		for _, line := range lines {
			if got, want := mine.MatchLine([]byte(line)), std.MatchString(line); got != want {
				t.Errorf("pattern %q line %q: got %v, stdlib %v", pat, line, got, want)
			}
		}
	}
}

func TestMalformedBraceIsLiteral(t *testing.T) {
	// Common grep behaviour: a brace that is not a valid interval matches
	// literally.
	for _, c := range []struct {
		pat  string
		line string
		want bool
	}{
		{"a{x}", "a{x}", true},
		{"a{x}", "ax", false},
		{"a{", "a{", true},
		{"{2}", "{2}", true}, // nothing to repeat: literal braces
	} {
		re := mustCompile(t, c.pat, false)
		if got := re.MatchLine([]byte(c.line)); got != c.want {
			t.Errorf("pattern %q line %q = %v, want %v", c.pat, c.line, got, c.want)
		}
	}
}

func TestIntervalOutOfRangeRejected(t *testing.T) {
	for _, pat := range []string{"a{65}", "a{1,999}", "a{5,2}"} {
		if _, err := Compile(pat, false); err == nil {
			t.Errorf("Compile(%q) succeeded", pat)
		}
	}
}

func TestIntervalNoLiteralFastPathLeak(t *testing.T) {
	re := mustCompile(t, "a{2}", false)
	if re.literal != nil {
		t.Fatal("interval pattern took the literal fast path")
	}
}
