package awkx

import "testing"

// strnumInput has, split at commas, one field of each kind the strnum table
// below asks about: " 10 ", "1e1", "0x10", "abc", "0", an empty field and
// "  0.0  ".
const strnumInput = " 10 ,1e1,0x10,abc,0,,  0.0  \n"

// strnumPrograms cover the four kinds of awk value — null (unset), number,
// string and numeric string (input that looks like a number) — in
// comparison, truth value and concatenation, with the output POSIX awk
// prints for strnumInput. Each is also a fuzzSeeds entry.
var strnumPrograms = []struct{ prog, want string }{
	// A field that looks numeric compares as a number with a number or
	// another such field; blanks around it do not matter, hexadecimal is
	// not a number.
	{`BEGIN { FS = "," } { print ($1 == 10), ($1 < 9), ($2 == 10), ($1 == $2) }`, "1 0 1 1\n"},
	{`BEGIN { FS = "," } { print ($3 == 16), ($3 == 0), ($3 == "0x10"), ($4 == 0), ($4 < 1) }`, "0 0 1 0 0\n"},
	// Against a string constant, the field's own text is compared.
	{`BEGIN { FS = "," } { print ($1 == " 10 "), ($1 == "10"), ($2 == "10"), ($2 == "1e1") }`, "1 0 0 1\n"},
	// An empty field is a string, not the number 0; a field past NF is null.
	{`BEGIN { FS = "," } { print ($5 == 0), ($7 == 0), ($6 == 0), ($6 == ""), ($9 == 0), ($9 == ""), length($9) }`, "1 1 0 1 1 1 0\n"},
	// Null is both 0 and "", until concatenation makes it a string.
	{`{ print (x == 0), (x == ""), (x < 1), (x < "a"), length(x), (x "" == 0) }`, "1 1 1 1 0 0\n"},
	// Constants: a string constant is a string, even an empty or numeric
	// one, and a number meets a string as its CONVFMT text.
	{`BEGIN { x = 0.1 + 0.2; print ("" == 0), ("0" == 0), (10 == "10"), (10 < "9"), (2 < "10"), (x == "0.3") }`, "0 1 1 1 0 1\n"},
	// Truth: a numeric string by its value, any other string by its length.
	{`BEGIN { FS = "," } { print ($1 ? "t" : "f") ($3 ? "t" : "f") ($4 ? "t" : "f") ($5 ? "t" : "f") ($6 ? "t" : "f") ($7 ? "t" : "f") (x ? "t" : "f") ("0" ? "t" : "f") (0 ? "t" : "f") ("" ? "t" : "f") }`, "tttfffftff\n"},
	// Concatenation keeps a field's text; arithmetic takes its numeric prefix.
	{`BEGIN { FS = "," } { print $1 $2 "|" ($1 + 0) ($2 + 0) ($3 + 0) ($4 + 0) "|" x "|" ($7 + 0) }`, " 10 1e1|101000||0\n"},
	// Assignment and split keep a numeric string; a string function's result
	// and a concatenation are strings.
	{`BEGIN { FS = "," } { y = $2; split("1e1 abc", a, " "); print (y == 10), (a[1] == 10), (a[2] == 0), (substr($2, 1) == 10), ($1 "" == 10), ($5 "" == 0) }`, "1 1 0 0 0 1\n"},
}

// progsOf returns the programs of a table of cases.
func progsOf(cases []struct{ prog, want string }) []string {
	progs := make([]string, len(cases))
	for i, c := range cases {
		progs[i] = c.prog
	}
	return progs
}

func TestStrnumKinds(t *testing.T) {
	for _, c := range strnumPrograms {
		got, code := runAwk(t, c.prog, strnumInput)
		if code != 0 || got != c.want {
			t.Errorf("%s\n got %q (exit %d)\nwant %q", c.prog, got, code, c.want)
		}
	}
}
