package awkx

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// refLooksNumeric and refNumPrefix are the classifier and the converter this
// package shipped before the hand-rolled scanner: strconv.ParseFloat as a
// predicate, tried on every prefix. They are right wherever Go's float
// grammar and awk's agree, which refAgrees decides.

func refLooksNumeric(s string) bool {
	t := strings.TrimSpace(s)
	if t == "" {
		return false
	}
	_, err := strconv.ParseFloat(t, 64)
	return err == nil
}

func refNumPrefix(s string) float64 {
	t := strings.TrimLeft(s, " \t\n\r")
	if len(t) > 64 {
		t = t[:64]
	}
	end := 0
	for i := 1; i <= len(t); i++ {
		v, err := strconv.ParseFloat(t[:i], 64)
		if err == nil && !math.IsInf(v, 0) && !math.IsNaN(v) {
			end = i
		}
	}
	if end == 0 {
		return 0
	}
	f, _ := strconv.ParseFloat(t[:end], 64)
	return f
}

// refAgrees reports whether the reference's verdict on s is awk's. It is
// not where Go reads more than awk does ("inf", "nan", hexadecimal,
// digit-separating underscores, Unicode space), where the reference's two
// halves trim different blanks (\v, \f), past its 64-byte cap, and where a
// number overflows (the reference falls back to a shorter prefix; awk, like
// strtod, says infinity).
func refAgrees(s string) bool {
	if len(s) > 64 || math.IsInf(numPrefix(s), 0) {
		return false
	}
	lower := strings.ToLower(s)
	if strings.Contains(lower, "inf") || strings.Contains(lower, "nan") {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 0x80, c == 'x', c == 'X', c == '_', c == '\v', c == '\f':
			return false
		}
	}
	return true
}

func checkAgainstReference(t *testing.T, s string) {
	t.Helper()
	if !refAgrees(s) {
		return
	}
	if got, want := looksNumeric(s), refLooksNumeric(s); got != want {
		t.Errorf("looksNumeric(%q) = %v, reference says %v", s, got, want)
	}
	if got, want := numPrefix(s), refNumPrefix(s); got != want {
		t.Errorf("numPrefix(%q) = %v, reference says %v", s, got, want)
	}
}

var numberSeeds = []string{
	"", " ", "0", "-0", "+0", "42", "  42  ", "\t7\n", "3.5kg", "-7end", "+2.5e3x", "1e", "1e+", "1e+5", "1E-5",
	".5", "5.", ".", "+.", "-.5e1", "5.e3", ".e3", "12.34.56", "1..2", "--1", "+-1", "1 2", "1e5e5", "e5", "0x10",
	"0x1p4", "inf", "+Inf", "Infinity", "infinity?", "nan", "NaN", "1_000", "1e999", "-1e999", "1e-999",
	"00012", "9007199254740993", "0.1", "123456789012345678901234567890", "the", "a1", "1a", "- 1", "1 .",
}

// TestNumberScannerMatchesReference walks every string over a small
// alphabet of the characters the number grammar cares about, up to a length
// that covers sign, digits, point, fraction and a signed exponent.
func TestNumberScannerMatchesReference(t *testing.T) {
	for _, s := range numberSeeds {
		checkAgainstReference(t, s)
	}
	const alphabet = "0 7+-.eEa"
	var walk func(prefix string, depth int)
	walk = func(prefix string, depth int) {
		checkAgainstReference(t, prefix)
		if depth == 0 {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			walk(prefix+alphabet[i:i+1], depth-1)
		}
	}
	walk("", 6)
}

// TestAwkNumberGrammar pins what the reference gets wrong: awk's numbers
// are decimal, and a field spelling a Go float that is not one is a string.
func TestAwkNumberGrammar(t *testing.T) {
	for _, c := range []struct {
		s       string
		numeric bool
		prefix  float64
	}{
		{"inf", false, 0},
		{"+inf", false, 0},
		{"Infinity", false, 0},
		{"nan", false, 0},
		{"-NaN", false, 0},
		{"0x1p4", false, 0},
		{"0x10", false, 0},
		{"1_000", false, 1},
		{"1e5", true, 1e5},
		{" -2.50 ", true, -2.5},
		{"\v3\f", true, 3},
		{".5.", false, 0.5},
		{"1e999", true, math.Inf(1)},
		{"-1e999", true, math.Inf(-1)},
		{strings.Repeat("1", 70), true, 1.1111111111111111e69},
	} {
		if got := looksNumeric(c.s); got != c.numeric {
			t.Errorf("looksNumeric(%q) = %v, want %v", c.s, got, c.numeric)
		}
		if got := numPrefix(c.s); got != c.prefix {
			t.Errorf("numPrefix(%q) = %v, want %v", c.s, got, c.prefix)
		}
	}
	// The programs the issue names: a field that says nan is a non-empty
	// string, so it is true and it is not equal to zero.
	expectAwk(t, `$1`, "nan\ninf\n0x1p4\n0\n", "nan\ninf\n0x1p4\n")
	expectAwk(t, `$1 == 0 { print "zero:", $1 }`, "nan\nInfinity\n0.0\n", "zero: 0.0\n")
}

func FuzzAwkNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		start, end := scanNumber(s)
		if start > end || end > len(s) {
			t.Fatalf("scanNumber(%q) = %d, %d", s, start, end)
		}
		if start < end {
			if _, err := strconv.ParseFloat(s[start:end], 64); err != nil && !errors.Is(err, strconv.ErrRange) {
				t.Fatalf("scanNumber(%q) took %q, which is not a number: %v", s, s[start:end], err)
			}
		}
		checkAgainstReference(t, s)
	})
}
