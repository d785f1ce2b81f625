package awkx

import "testing"

// fuzzSeeds start both fuzzers below and are part of what
// TestCompiledEqualsTreeWalk runs, the strnum and array-parameter tables'
// programs last.
var fuzzSeeds = append([]string{
	`{ print $2, $1 }`,
	`BEGIN { FS = ":" } { n += NF; a[$1]++ } END { print n, length(a) }`,
	`{ for (i = 1; i <= NF; i++) freq[$i]++ } END { n = 0; for (w in freq) n++; print n }`,
	`function f(x, t) { t[x] = 1; return x * 2 } BEGIN { print f(2) }`,
	`$1 == 0 || /re/ { $(NF+1) = substr($0, 2) ; print > "out" }`,
	`BEGIN { a[i++]++; $(n++) += 1; a[1,2] -= 1; delete a[1,2]; if ((1,2) in a) print }`,
	`{ sub(/a/, "b", a[i++]); x = y ? z : -w ^ 2; print x "" !y }`,
	`BEGIN { printf "%5.2f %c %s\n", 1, 65, "s"; getline line < "f"; exit 1 }`,
	`{ NF = 2; NR = 7; $0 = "a b c"; OFS = "-"; $1 = $1; print NR, NF, $0 }`,
	`function g(NF) { return NF } { print g(1) g`,
	`BEGIN { a[`, `{ $ }`, `/(/`, `"`, "{ x = 1e999; print x + 0, -x, x % 2 }",
	`BEGIN { while (1) {} }`, `BEGIN { for (;;) for (;;) {} }`, `function f() { f() } BEGIN { f() }`,
	`function f(a) { for (k in a) { if (k > 1) continue; next } } { split($0, w); f(w) } END { print NR; exit 3 }`,
	`{ do { $1e9 = NF++ } while (NF < 1e9) }`,
	`BEGIN { x["k"]; n = 0; for (k in x) n++; print n }`, `BEGIN { if (y["k"] == "") ; print ("k" in y) }`,
	`function f() { while (1) {} } BEGIN { print x[f()] }`,
}, append(progsOf(strnumPrograms), progsOf(arrayParamPrograms)...)...)

// FuzzAwkParse feeds arbitrary text to the parser, which must answer with a
// program or an error and never panic or run past the end of its tokens.
func FuzzAwkParse(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return
		}
		prog, err := parse(src)
		if err != nil {
			return
		}
		if len(prog.globals) < numSpecials {
			t.Fatalf("special variables lost their slots: %v", prog.globals)
		}
	})
}

// FuzzAwkRun runs whatever parses, compiled and through the tree walk, over
// one small input and under a step limit a test can afford, and holds the
// two to the same output, files, exit code and error: no panic, no hang, no
// difference.
func FuzzAwkRun(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<10 {
			return
		}
		sameAsTreeWalk(t, src, diffInput, 2000)
	})
}
