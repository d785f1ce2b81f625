package awkx

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// value is an AWK scalar of one kind: isNull (never set: both "" and 0, the
// zero value), isNum (n), isStr (s, a string even when empty) or isInput (s
// from input: a "strnum", which compares numerically when it looks like a
// number). Whether an input string looks like a number is decided only when
// a comparison or a truth test asks, so a word that is only ever an array
// key is never scanned. Three fields let the compiler keep one in registers.
type value struct {
	s    string
	n    float64
	kind uint8
}

const isNull, isNum, isStr, isInput = 0, 1, 2, 3

func num(f float64) value     { return value{n: f, kind: isNum} }
func str(s string) value      { return value{s: s, kind: isStr} }
func inputStr(s string) value { return value{s: s, kind: isInput} }

var uninitialized = value{}

// boolNum is the result of a comparison or logical operator: 1 or 0.
func boolNum(b bool) value {
	if b {
		return num(1)
	}
	return num(0)
}

func isBlank(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// scanNumber finds the longest decimal number at the front of s, after any
// blanks: an optional sign, digits with an optional fraction or a fraction
// alone, and an exponent if it has digits. It returns the number's bounds,
// equal when there is none. This is awk's grammar, not Go's: no "inf",
// "nan", hexadecimal or underscores.
func scanNumber(s string) (start, end int) {
	i := 0
	for i < len(s) && isBlank(s[i]) {
		i++
	}
	start = i
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits := i
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	mantissa := i - digits
	if i < len(s) && s[i] == '.' {
		i++
		for i < len(s) && isDigit(s[i]) {
			i++
		}
		mantissa = i - digits - 1
	}
	if mantissa == 0 {
		return start, start
	}
	end = i
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i < len(s) && isDigit(s[i]) {
			for i < len(s) && isDigit(s[i]) {
				i++
			}
			end = i
		}
	}
	return start, end
}

// looksNumeric reports whether s is a number with optional surrounding
// blanks.
func looksNumeric(s string) bool {
	start, end := scanNumber(s)
	if start == end {
		return false
	}
	for ; end < len(s); end++ {
		if !isBlank(s[end]) {
			return false
		}
	}
	return true
}

// Num converts following awk semantics: numeric prefix of the string, else 0.
func (v value) Num() float64 {
	if v.kind == isNum {
		return v.n
	}
	return numPrefix(v.s)
}

// numPrefix parses the longest numeric prefix of s (awk's string→number
// rule: "3.5kg" is 3.5, "abc" is 0).
func numPrefix(s string) float64 {
	start, end := scanNumber(s)
	if start == end {
		return 0
	}
	// The text is valid syntax, so the only error is out of range, for
	// which ParseFloat returns the infinity strtod would.
	f, _ := strconv.ParseFloat(s[start:end], 64)
	return f
}

// Str renders the value as awk would: integral numbers without decimals,
// others via CONVFMT (%.6g).
func (v value) Str() string {
	if v.kind != isNum {
		return v.s
	}
	return numToStr(v.n)
}

func numToStr(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e16 {
		return strconv.FormatInt(int64(f), 10)
	}
	return fmt.Sprintf("%.6g", f)
}

// Bool follows awk truthiness: numbers by non-zero, strings by non-empty
// (strnums by numeric value).
func (v value) Bool() bool {
	if v.kind == isNum {
		return v.n != 0
	}
	if v.kind == isInput && looksNumeric(v.s) {
		return numPrefix(v.s) != 0
	}
	return v.s != ""
}

// numericish reports whether a value participates in numeric comparison:
// true numbers, input strnums, and uninitialised values — not an empty
// string or empty field.
func numericish(v value) bool {
	return v.kind == isNum || v.kind == isNull || (v.kind == isInput && looksNumeric(v.s))
}

// compare returns -1, 0, or 1.
func compare(a, b value) int {
	if numericish(a) && numericish(b) {
		return compareNum(a.Num(), b.Num())
	}
	return strings.Compare(a.Str(), b.Str())
}

func compareNum(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}
