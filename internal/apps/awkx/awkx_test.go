package awkx

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/minfs"
	"compstor/internal/sim"
)

// runAwk executes a program over input and returns stdout and exit code.
func runAwk(t *testing.T, prog, input string, args ...string) (string, int) {
	t.Helper()
	var out bytes.Buffer
	ctx := &apps.Context{
		Stdin:  strings.NewReader(input),
		Stdout: &out,
		Stderr: &bytes.Buffer{},
	}
	all := append(args, prog)
	err := Gawk{}.Run(ctx, all)
	// Every program a test runs is held to what the tree walk makes of it.
	var refOut bytes.Buffer
	refErr := refGawk(&apps.Context{Stdin: strings.NewReader(input), Stdout: &refOut, Stderr: &bytes.Buffer{}}, all)
	if out.String() != refOut.String() || fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Errorf("program %q: compiled printed %q (%v), the tree walk %q (%v)", prog, out.String(), err, refOut.String(), refErr)
	}
	return out.String(), apps.ExitCode(err)
}

func expectAwk(t *testing.T, prog, input, want string) {
	t.Helper()
	got, code := runAwk(t, prog, input)
	if code != 0 {
		t.Fatalf("program %q exited %d (output %q)", prog, code, got)
	}
	if got != want {
		t.Fatalf("program %q:\n got %q\nwant %q", prog, got, want)
	}
}

func TestPrintFields(t *testing.T) {
	expectAwk(t, `{ print $2, $1 }`, "hello world\nfoo bar\n", "world hello\nbar foo\n")
}

func TestNFNR(t *testing.T) {
	expectAwk(t, `{ print NR, NF }`, "a b c\nd e\n", "1 3\n2 2\n")
}

func TestBEGINEND(t *testing.T) {
	expectAwk(t, `BEGIN { print "start" } { n++ } END { print "lines", n }`,
		"x\ny\nz\n", "start\nlines 3\n")
}

func TestArithmetic(t *testing.T) {
	expectAwk(t, `BEGIN { print 2+3*4, (2+3)*4, 10/4, 10%3, 2^10, -3+1 }`, "",
		"14 20 2.5 1 1024 -2\n")
}

func TestStringConcat(t *testing.T) {
	expectAwk(t, `BEGIN { x = "a" "b"; y = x 12; print y "!" }`, "", "ab12!\n")
}

func TestComparisonSemantics(t *testing.T) {
	// Strnum comparisons: fields compare numerically when both look numeric.
	expectAwk(t, `{ if ($1 < $2) print "lt"; else print "ge" }`, "9 10\n", "lt\n")
	// String comparison when one side is a string literal.
	expectAwk(t, `BEGIN { if ("9" < "10") print "string-lt"; else print "string-ge" }`, "", "string-ge\n")
}

func TestPatternRegex(t *testing.T) {
	expectAwk(t, `/err/ { print NR }`, "ok\nerror here\nfine\nerrand\n", "2\n4\n")
}

func TestPatternExpr(t *testing.T) {
	expectAwk(t, `NF > 2 { print $0 }`, "a b\na b c\nx\np q r s\n", "a b c\np q r s\n")
}

func TestPatternOnlyRulePrints(t *testing.T) {
	expectAwk(t, `/keep/`, "keep me\ndrop me\n", "keep me\n")
}

func TestFieldAssignmentRebuildsRecord(t *testing.T) {
	expectAwk(t, `{ $2 = "X"; print }`, "a b c\n", "a X c\n")
	expectAwk(t, `{ $5 = "v"; print; print NF }`, "a b\n", "a b   v\n5\n")
}

func TestOFSORS(t *testing.T) {
	expectAwk(t, `BEGIN { OFS="-"; ORS="|" } { $1=$1; print }`, "a b c\n", "a-b-c|")
}

func TestFSSingleChar(t *testing.T) {
	expectAwk(t, `{ print $2 }`, "a:b:c\n", "\n") // default FS: one field
	got, _ := runAwk(t, `{ print $2 }`, "a:b:c\n", "-F", ":")
	if got != "b\n" {
		t.Fatalf("-F: got %q", got)
	}
}

// Default splitting is strings.Fields': runs of ASCII blanks, and Unicode
// space once a record leaves ASCII.
func TestDefaultFieldSplitting(t *testing.T) {
	expectAwk(t, `{ print NF ":" $1 "|" $NF }`, "  a \t b\vc\f \n\nz\n", "3:a|c\n0:|\n1:z|z\n")
	expectAwk(t, `{ print NF ":" $2 }`, "é\u00a0b c\n", "3:b\n")
	got, _ := runAwk(t, `{ print NF ":" $2 "|" $4 }`, "a::b:\n\n", "-F", ":")
	if got != "4:|\n0:|\n" {
		t.Fatalf("-F: with empty fields got %q", got)
	}
}

func TestFSRegex(t *testing.T) {
	got, _ := runAwk(t, `{ print $2 }`, "a12b345c\n", "-F", "[0-9]+")
	if got != "b\n" {
		t.Fatalf("regex FS got %q", got)
	}
}

func TestVFlag(t *testing.T) {
	got, _ := runAwk(t, `BEGIN { print x * 2 }`, "", "-v", "x=21")
	if got != "42\n" {
		t.Fatalf("-v got %q", got)
	}
}

func TestArrays(t *testing.T) {
	expectAwk(t, `{ count[$1]++ } END { print count["a"], count["b"] }`,
		"a\nb\na\na\n", "3 1\n")
}

func TestArrayMultiDim(t *testing.T) {
	expectAwk(t, `BEGIN { m[1,2] = "x"; m[1,3] = "y"; print m[1,2] m[1,3]; n=0; for (k in m) n++; print n }`,
		"", "xy\n2\n")
}

// As in mawk: reading x[k] creates the element, with the uninitialized
// value, and so does naming it as the target of sub or gsub, substituting
// or not; a membership test, a delete and length create nothing.
func TestReadingAnElementCreatesIt(t *testing.T) {
	for _, c := range []struct{ prog, want string }{
		{`BEGIN { x["k"]; n = 0; for (k in x) n++; print n }`, "1\n"},
		{`BEGIN { if (y["k"] == "") ; print ("k" in y) }`, "1\n"},
		{`BEGIN { v = w["a"] w["b"]; print length(w), v == "" }`, "2 1\n"},
		{`BEGIN { if ("k" in x) ; delete x["j"]; n = length(x); for (k in x) n++; print n }`, "0\n"},
		{`BEGIN { gsub(/x/, "y", a["k"]); print length(a) }`, "1\n"},
		{`BEGIN { sub(/x/, "y", a["k"]); print length(a) }`, "1\n"},
		{`BEGIN { sub(/x/, "y", a["k"]); print a["k"] == 0, a["k"] == "" }`, "1 1\n"},
	} {
		expectAwk(t, c.prog, "", c.want)
	}
}

func TestForIn(t *testing.T) {
	// Order is unspecified; sum values instead.
	expectAwk(t, `BEGIN { a["x"]=1; a["y"]=2; a["z"]=4; s=0; for (k in a) s += a[k]; print s }`,
		"", "7\n")
}

func TestDelete(t *testing.T) {
	expectAwk(t, `BEGIN { a[1]=1; a[2]=2; delete a[1]; n=0; for (k in a) n++; print n }`, "", "1\n")
	expectAwk(t, `BEGIN { a[1]=1; a[2]=2; delete a; n=0; for (k in a) n++; print n }`, "", "0\n")
}

func TestControlFlow(t *testing.T) {
	expectAwk(t, `BEGIN {
		s = 0
		for (i = 1; i <= 10; i++) {
			if (i % 2 == 0) continue
			if (i > 7) break
			s += i
		}
		print s
	}`, "", "16\n") // 1+3+5+7
}

func TestWhileAndDoWhile(t *testing.T) {
	expectAwk(t, `BEGIN { i=0; while (i<3) { printf "%d", i; i++ } print "" }`, "", "012\n")
	expectAwk(t, `BEGIN { i=5; do { printf "%d", i; i++ } while (i<3); print "" }`, "", "5\n")
}

func TestNextStatement(t *testing.T) {
	expectAwk(t, `/skip/ { next } { print }`, "a\nskip me\nb\n", "a\nb\n")
}

func TestExitCode(t *testing.T) {
	_, code := runAwk(t, `BEGIN { exit 3 }`, "")
	if code != 3 {
		t.Fatalf("exit code = %d, want 3", code)
	}
}

func TestExitRunsEND(t *testing.T) {
	expectAwk(t, `BEGIN { print "b"; exit 0 } END { print "e" }`, "", "b\ne\n")
}

func TestUserFunctions(t *testing.T) {
	expectAwk(t, `
		function add(a, b) { return a + b }
		BEGIN { print add(2, 3) }`, "", "5\n")
}

func TestRecursion(t *testing.T) {
	expectAwk(t, `
		function fib(n) {
			if (n < 2) return n
			return fib(n-1) + fib(n-2)
		}
		BEGIN { print fib(15) }`, "", "610\n")
}

func TestFunctionLocals(t *testing.T) {
	// Extra params are locals and must not leak to the caller.
	expectAwk(t, `
		function f(x,  tmp) { tmp = x * 2; return tmp }
		BEGIN { tmp = 99; print f(4); print tmp }`, "", "8\n99\n")
}

func TestArrayByReference(t *testing.T) {
	expectAwk(t, `
		function fill(arr) { arr["k"] = 42 }
		BEGIN { a["k"] = 0; fill(a); print a["k"] }`, "", "42\n")
}

// arrayParamPrograms: a parameter the callee uses as an array, itself or by
// passing it on, makes the caller's untyped argument that array, with the
// output mawk prints. A membership test creates the array but no element.
// Each is also a fuzzSeeds entry.
var arrayParamPrograms = []struct{ prog, want string }{
	{`function f(a){a["z"]=1} BEGIN{f(u); n=0; for(k in u) n++; print n}`, "1\n"},
	{`function f(a){a["z"]=1} BEGIN{f(u); print u["z"]}`, "1\n"},
	{`function g(b){b[1]=1} function f(a){g(a)} BEGIN{f(u); print length(u)}`, "1\n"},
	{`function f(a){split("x y z", a)} BEGIN{f(u); print length(u)}`, "3\n"},
	{`function f(a,  loc){loc["q"]=1; a["z"]=1} BEGIN{f(u); print length(u)}`, "1\n"},
	{`function f(a){print ("k" in a)} BEGIN{f(u); print length(u)}`, "0\n0\n"},
}

func TestArrayParameterMakesTheArgumentAnArray(t *testing.T) {
	for _, c := range arrayParamPrograms {
		expectAwk(t, c.prog, "", c.want)
	}
}

func TestBuiltinsStrings(t *testing.T) {
	expectAwk(t, `BEGIN {
		print length("hello")
		print substr("hello world", 7)
		print substr("hello", 2, 3)
		print index("banana", "nan")
		print toupper("MixEd"), tolower("MixEd")
	}`, "", "5\nworld\nell\n3\nMIXED mixed\n")
}

func TestSubstrClamping(t *testing.T) {
	expectAwk(t, `BEGIN { print substr("hello", 0, 2) substr("hello", 4, 99) "|" substr("hello", 9) "|" }`,
		"", "hlo||\n")
}

func TestSplitBuiltin(t *testing.T) {
	expectAwk(t, `BEGIN { n = split("a:b:c", parts, ":"); print n, parts[1], parts[3] }`,
		"", "3 a c\n")
	// A separator that can match empty splits only where it matches text.
	expectAwk(t, `{ n = split($0, p, /b*/); print n, p[1], p[n] }`, "abc\nxbxbx\n", "2 a c\n3 x x\n")
}

func TestSubGsub(t *testing.T) {
	expectAwk(t, `{ sub(/o/, "0"); print }`, "foo boo\n", "f0o boo\n")
	expectAwk(t, `{ n = gsub(/o/, "0"); print n, $0 }`, "foo boo\n", "4 f00 b00\n")
	expectAwk(t, `BEGIN { s = "aaa"; gsub(/a/, "[&]", s); print s }`, "", "[a][a][a]\n")
	expectAwk(t, `BEGIN { s = "aaa"; gsub(/a/, "[\\&]", s); print s }`, "", "[&][&][&]\n")
}

// As in POSIX awk: an empty match counts at every position, the end of the
// string included, except where the previous match ended; and ^ anchors at
// the start of the string only, not wherever the last match left off.
func TestGsubEmptyMatchesAndAnchors(t *testing.T) {
	for _, c := range []struct{ prog, want string }{
		{`{ n = gsub(/x*/, "-"); print n, $0 }`, "4 -a-b-c-\n"},
		{`{ gsub(/b*/, "-"); print }`, "-a-c-\n"},
		{`{ gsub(/^/, ">"); print }`, ">abc\n"},
		{`{ gsub(/$/, "<"); print }`, "abc<\n"},
		{`{ s = "aaa"; gsub(/^a/, "X", s); print s }`, "Xaa\n"},
		{`{ gsub(/b|$/, "#"); print }`, "a#c#\n"},
	} {
		expectAwk(t, c.prog, "abc\n", c.want)
	}
}

func TestMatchBuiltin(t *testing.T) {
	expectAwk(t, `BEGIN { if (match("hello world", /wor/)) print RSTART, RLENGTH }`,
		"", "7 3\n")
	expectAwk(t, `BEGIN { print match("abc", /z/), RSTART, RLENGTH }`, "", "0 0 -1\n")
}

func TestMathBuiltins(t *testing.T) {
	expectAwk(t, `BEGIN { print int(3.9), int(-3.9), sqrt(16), exp(0), log(1) }`,
		"", "3 -3 4 1 0\n")
	expectAwk(t, `BEGIN { printf "%.3f\n", atan2(1,1)*4 }`, "", "3.142\n")
}

func TestRandSrand(t *testing.T) {
	expectAwk(t, `BEGIN { srand(42); a = rand(); srand(42); b = rand(); print (a == b) }`,
		"", "1\n")
	expectAwk(t, `BEGIN { r = rand(); print (r >= 0 && r < 1) }`, "", "1\n")
}

func TestPrintf(t *testing.T) {
	expectAwk(t, `BEGIN { printf "%d|%5d|%-5d|%05.1f|%s|%c|%x\n", 42, 42, 42, 3.14159, "str", 65, 255 }`,
		"", "42|   42|42   |003.1|str|A|ff\n")
}

func TestSprintf(t *testing.T) {
	expectAwk(t, `BEGIN { s = sprintf("%03d-%s", 7, "x"); print s }`, "", "007-x\n")
}

func TestTernaryAndLogic(t *testing.T) {
	// Inside print, a bare '>' is redirection, so the comparison must be
	// parenthesised — exactly as in real awk.
	expectAwk(t, `BEGIN { x = 5; print (x > 3 ? "big" : "small"), (x > 3 && x < 10), (x > 9 || x < 1), !x }`,
		"", "big 1 0 0\n")
}

func TestIncDec(t *testing.T) {
	expectAwk(t, `BEGIN { i = 5; print i++, i, ++i, i--, --i }`, "", "5 6 7 7 5\n")
}

// An assignment target's subscripts and field index are evaluated once,
// however the target is then read and written.
func TestLvalueSideEffectsRunOnce(t *testing.T) {
	expectAwk(t, `BEGIN { i = 1; a[i++]++; print i, a[1], length(a) }`, "", "2 1 1\n")
	expectAwk(t, `BEGIN { i = 1; --a[i++]; print i, a[1], length(a) }`, "", "2 -1 1\n")
	expectAwk(t, `{ n = 1; $(n++) += 1; print n, $0 }`, "5 10\n", "2 6 10\n")
	expectAwk(t, `function f() { calls++; return "k" }
		BEGIN { a[f()] -= 1; print calls, a["k"], length(a) }`, "", "1 -1 1\n")
	expectAwk(t, `BEGIN { i = 1; a[1] = "xax"; gsub(/a/, "b", a[i++]); print i, a[1], length(a) }`, "", "2 xbx 1\n")
}

func TestCompoundAssign(t *testing.T) {
	expectAwk(t, `BEGIN { x = 10; x += 5; x -= 3; x *= 2; x /= 4; x %= 4; x ^= 2; print x }`,
		"", "4\n")
}

func TestMatchOperators(t *testing.T) {
	expectAwk(t, `{ if ($0 ~ /^a/) print "starts-a"; if ($0 !~ /z$/) print "no-z" }`,
		"abc\n", "starts-a\nno-z\n")
}

func TestDynamicRegex(t *testing.T) {
	expectAwk(t, `BEGIN { pat = "b+c"; if ("abbbc" ~ pat) print "yes" }`, "", "yes\n")
}

func TestDollarExpression(t *testing.T) {
	expectAwk(t, `{ print $(NF), $NF, $(NF-1) }`, "x y z\n", "z z y\n")
}

func TestUninitializedVars(t *testing.T) {
	expectAwk(t, `BEGIN { print x + 0, "[" x "]", length(x) }`, "", "0 [] 0\n")
}

func TestWordCountIdiom(t *testing.T) {
	// The paper's gawk workload shape: count word frequencies.
	input := "the cat sat\nthe dog sat\n"
	expectAwk(t, `{ for (i = 1; i <= NF; i++) freq[$i]++ }
		END { print freq["the"], freq["sat"], freq["cat"] }`, input, "2 2 1\n")
}

func TestCSVSumIdiom(t *testing.T) {
	got, _ := runAwk(t, `{ sum += $3 } END { printf "%.2f\n", sum }`,
		"a,x,1.5\nb,y,2.25\nc,z,3\n", "-F", ",")
	if got != "6.75\n" {
		t.Fatalf("csv sum got %q", got)
	}
}

func TestPrintRedirection(t *testing.T) {
	// print > "file" requires a filesystem; without one the interpreter
	// must error cleanly rather than panic.
	_, code := runAwk(t, `BEGIN { print "x" > "out.txt" }`, "")
	if code == 0 {
		t.Fatal("redirection without filesystem should fail")
	}
}

func TestParseErrors(t *testing.T) {
	for _, prog := range []string{
		"{ print ",
		"{ if (x { } }",
		"function f( { }",
		"BEGIN { x = }",
		"{ while }",
	} {
		_, code := runAwk(t, prog, "")
		if code == 0 {
			t.Errorf("program %q parsed without error", prog)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	_, code := runAwk(t, `BEGIN { f() }`, "")
	if code == 0 {
		t.Error("undefined function call should fail")
	}
}

func TestDeepRecursionGuard(t *testing.T) {
	_, code := runAwk(t, `function f() { return f() } BEGIN { f() }`, "")
	if code == 0 {
		t.Error("unbounded recursion should fail, not hang")
	}
}

func TestComments(t *testing.T) {
	expectAwk(t, "BEGIN { # comment\n print 1 # more\n}", "", "1\n")
}

func TestSemicolonsAndNewlines(t *testing.T) {
	expectAwk(t, `BEGIN { x = 1; y = 2
		print x + y; print x * y }`, "", "3\n2\n")
}

func TestEmptyProgramParts(t *testing.T) {
	expectAwk(t, `END { print NR }`, "a\nb\nc\n", "3\n")
	expectAwk(t, `BEGIN { print "only" }`, "ignored\n", "only\n")
}

func TestRegexFieldSeparatorViaSplit(t *testing.T) {
	expectAwk(t, `BEGIN { n = split("one1two22three", a, /[0-9]+/); print n, a[2] }`,
		"", "3 two\n")
}

func TestStringNumericJuggling(t *testing.T) {
	expectAwk(t, `BEGIN { print "3" + "4", "3.5x" + 1, "x" + 1 }`, "", "7 4.5 1\n")
}

// getline tests need a filesystem-backed context; build one with the same
// in-memory device the isps tests use.
func TestGetlineFromFile(t *testing.T) {
	runAwkFS(t, map[string]string{"aux.txt": "line one\nline two\n"},
		`BEGIN {
			while ((getline l < "aux.txt") > 0) n++
			print n, l
		}`, "2 line two\n")
}

func TestGetlineIntoRecord(t *testing.T) {
	runAwkFS(t, map[string]string{"aux.txt": "alpha beta gamma\n"},
		`BEGIN {
			if ((getline < "aux.txt") > 0) print NF, $2
		}`, "3 beta\n")
}

func TestGetlineMissingFileReturnsMinusOne(t *testing.T) {
	runAwkFS(t, nil,
		`BEGIN { print (getline l < "ghost.txt") }`, "-1\n")
}

func TestGetlineWithoutFSReturnsMinusOne(t *testing.T) {
	// Without a mounted filesystem the open fails, which getline reports
	// as -1 (POSIX), not as a fatal error.
	out, code := runAwk(t, `BEGIN { print (getline l < "f") }`, "")
	if code != 0 || out != "-1\n" {
		t.Fatalf("out=%q code=%d", out, code)
	}
}

// fsDevice is a zero-cost in-memory block device for getline tests.
type fsDevice struct {
	pageSize int
	pages    int64
	store    map[int64][]byte
}

func (d *fsDevice) PageSize() int { return d.pageSize }
func (d *fsDevice) Pages() int64  { return d.pages }
func (d *fsDevice) ReadPages(p *sim.Proc, lpn, count int64) ([]byte, error) {
	out := make([]byte, 0, count*int64(d.pageSize))
	for i := int64(0); i < count; i++ {
		if pg, ok := d.store[lpn+i]; ok {
			out = append(out, pg...)
		} else {
			out = append(out, make([]byte, d.pageSize)...)
		}
	}
	return out, nil
}
func (d *fsDevice) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	for i := 0; i*d.pageSize < len(data); i++ {
		pg := make([]byte, d.pageSize)
		copy(pg, data[i*d.pageSize:])
		d.store[lpn+int64(i)] = pg
	}
	return nil
}
func (d *fsDevice) TrimPages(p *sim.Proc, lpn, count int64) error {
	for i := int64(0); i < count; i++ {
		delete(d.store, lpn+i)
	}
	return nil
}

// runAwkFS executes a program with a filesystem-backed context, compiled
// and through the tree walk.
func runAwkFS(t *testing.T, files map[string]string, prog, want string) {
	t.Helper()
	runAwkFSWith(t, Gawk{}.Run, files, prog, want)
	runAwkFSWith(t, refGawk, files, prog, want)
}

func runAwkFSWith(t *testing.T, run func(*apps.Context, []string) error, files map[string]string, prog, want string) {
	t.Helper()
	eng := sim.NewEngine()
	dev := &fsDevice{pageSize: 512, pages: 1 << 14, store: make(map[int64][]byte)}
	view := minfs.NewView(minfs.NewFS(512, 1<<14), dev)
	var out bytes.Buffer
	var code int
	eng.Go("awk", func(p *sim.Proc) {
		for name, content := range files {
			if err := view.WriteFile(p, name, []byte(content)); err != nil {
				t.Error(err)
				return
			}
		}
		ctx := &apps.Context{
			Proc:   p,
			FS:     view,
			Stdin:  strings.NewReader(""),
			Stdout: &out,
			Stderr: &bytes.Buffer{},
		}
		code = apps.ExitCode(run(ctx, []string{prog}))
	})
	eng.Run()
	if code != 0 {
		t.Fatalf("program exited %d (output %q)", code, out.String())
	}
	if out.String() != want {
		t.Fatalf("got %q, want %q", out.String(), want)
	}
}

// for-in visits the keys live at loop entry, once each, in the order they
// were first inserted, so what a program prints from a loop is a property
// of the program. (It ranged over a Go map once: 20 orders in 20 runs.)
func TestForInOrderIsInsertionOrder(t *testing.T) {
	const count = `{ for (i = 1; i <= NF; i++) f[$i]++ } END { for (w in f) printf "%s ", w; print "" }`
	for i := 0; i < 50; i++ {
		expectAwk(t, count, "the quick brown fox jumps over the lazy dog and the cat\n",
			"the quick brown fox jumps over lazy dog and cat \n")
	}
	for _, c := range []struct{ name, prog, want string }{
		{"a deleted key that returns goes last",
			`BEGIN { a["x"] = 1; a["y"] = 2; a["z"] = 3; delete a["x"]; a["x"] = 4; for (k in a) printf "%s%d ", k, a[k] }`,
			"y2 z3 x4 "},
		{"a key the body deletes is still visited, one it inserts is not",
			`BEGIN { split("x y z", a); for (k in a) { printf "%s ", k; delete a[3]; a[k + 10] = k }; print length(a); for (k in a) printf "%s ", k }`,
			"1 2 3 5\n1 2 11 12 13 "},
		{"a key gone before the loop began is not",
			`BEGIN { split("x y z", a); delete a[2]; for (k in a) { for (j in a) printf "%s%s ", k, j; delete a[3] } }`,
			"11 13 31 "},
		{"split fills in index order",
			`BEGIN { split("c a b", p); for (i in p) printf "%s%s ", i, p[i] }`,
			"1c 2a 3b "},
		{"an array parameter iterates like its caller's",
			`function keys(arr,  k, s) { for (k in arr) s = s k; return s } BEGIN { a["b"] = 1; a["c"] = 2; a["a"] = 3; print keys(a); for (k in a) printf "%s", k }`,
			"bca\nbca"},
	} {
		if got, _ := runAwk(t, c.prog, ""); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

// A run's arrays come from a pool and go back to it, so a warm run of the
// served-file program allocates its records and keys, not a hash map grown
// from empty (545,934 B in 192 objects when it did).
func TestWordFreqWarmRunAllocs(t *testing.T) {
	data := book(28 << 10)
	leastBytes, leastObjects := uint64(1<<62), uint64(1<<62)
	for i := 0; i < 10; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ctx := &apps.Context{Stdin: bytes.NewReader(data), Stdout: io.Discard, Stderr: io.Discard}
		if err := (Gawk{}).Run(ctx, []string{wordFreqProg}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		leastBytes = min(leastBytes, after.TotalAlloc-before.TotalAlloc)
		leastObjects = min(leastObjects, after.Mallocs-before.Mallocs)
	}
	if leastBytes > 64<<10 || leastObjects > 200 {
		t.Errorf("a warm word-frequency run over 28 KiB allocates %d bytes in %d objects, want at most %d in 200", leastBytes, leastObjects, 64<<10)
	}
}

// The generator is built by the first rand() or srand(), not per run, and a
// program that never calls srand() still draws seed 0's sequence.
func TestRandWithoutSrandIsSeedZero(t *testing.T) {
	expectAwk(t, `BEGIN { a = rand(); b = rand(); srand(0); print (a == rand()), (b == rand()), srand(3), srand() }`, "", "1 1 0 3\n")
	if prog, err := parse(`BEGIN { x = 1 }`); err != nil || newInterp(prog, io.Discard).rng != nil {
		t.Fatalf("a new interpreter already has a generator (parse error %v)", err)
	}
}

// The binary operators are parsed by one precedence table (parseBinary);
// this is each operator against its neighbours, as the nine-level ladder the
// table replaced parsed them.
func TestOperatorPrecedence(t *testing.T) {
	expectAwk(t, `BEGIN {
		print 1 + 2 * 3, 7 - 2 - 1, 2 * 3 % 4, 2 ^ 3 ^ 2, -2 ^ 2, 2 ^ -1, !0 + 1, 1 - -1
		print 1 " " 2 + 3, 1 2 * 3, 2 - 1 " " 1, "a" 1 < 2, 1 + 1 == 2 "x", ("a" "b") == "ab"
		print 3 < 12 ~ 1, 1 ~ 1 < 2, "ab" ~ "a" "b", 2 < 1 || 1, 0 && 0 || 1, 1 || 0 && 0, !1 || 1
		a[1] = 1; print 1 in a, 2 in a || 1, 0 + 1 in a, (1 in a) + 1, 1 < 2 in a, x = 1 ? 2 : 3, x
		print 1 == 1 ? "y" : "n", 1 ? 0 ? "a" : "b" : "c", $0 ~ 1 ? 1 : 2, (2 > 1) 3
	}`, "", "7 4 2 512 -4 0.5 2 2\n1 5 16 1 1 0 0 1\n1 1 1 1 1 1 1\n1 1 1 2 1 2 2\ny b 2 13\n")
	for _, bad := range []string{`BEGIN { print 1 < 2 < 3 }`, `BEGIN { x = 1 in }`, `BEGIN { print (1 in a < 2) }`, `BEGIN { x = 1 == 2 != 3 }`} {
		if _, err := parse(bad); err == nil {
			t.Errorf("%s parsed", bad)
		}
	}
}

// A number literal is the longest prefix strings convert by, so what follows
// one is the next token: `1.2.3` is 1.2 and .3 side by side.
func TestNumberLiterals(t *testing.T) {
	expectAwk(t, `BEGIN { print 1.2.3, 1e3x, .5 + 1., 1e+2 1E-1, 2e, 0x10 }`, "", "1.20.3 1000 1.5 1000.1 2 0\n")
}

// Through a memo, the third run of an argv over the same input replays the
// second's tape: it prints the same bytes, and it neither parses the program
// nor runs the rules, so it allocates a small fraction of what a live run
// does (the pooled arrays make a live run's count a stable floor).
func TestGawkMemoHitRunsNoRules(t *testing.T) {
	data := book(28 << 10)
	run := func(g Gawk) string {
		var out bytes.Buffer
		if err := g.Run(&apps.Context{Stdin: bytes.NewReader(data), Stdout: &out, Stderr: io.Discard}, []string{wordFreqProg}); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	memo := Program(apps.NewCodecMemo())
	want := run(Gawk{})
	for i := 1; i <= 3; i++ {
		if got := run(memo); got != want {
			t.Fatalf("run %d through the memo printed %q, want %q", i, got, want)
		}
	}
	live, hit := testing.AllocsPerRun(5, func() { run(Gawk{}) }), testing.AllocsPerRun(5, func() { run(memo) })
	if hit > live/10 {
		t.Errorf("a hit allocates %.0f objects, a live run %.0f: the hit ran the program", hit, live)
	}
}
