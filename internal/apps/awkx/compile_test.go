package awkx

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"compstor/internal/apps"
)

// outcome is everything a run shows the outside.
type outcome struct {
	Stdout string
	Files  map[string]string // print redirections, by name
	Code   int
	Err    string
}

type memFile struct{ bytes.Buffer }

func (*memFile) Close() error { return nil }

// cappedWriter fails once a program has printed more than a test can want,
// so a fuzzed `while (1) print` ends at the cap rather than at the step limit.
type cappedWriter struct {
	w    io.Writer
	left int
}

func (c *cappedWriter) Write(b []byte) (int, error) {
	if c.left -= len(b); c.left < 0 {
		return 0, errors.New("output cap exceeded")
	}
	return c.w.Write(b)
}

const auxFile = "alpha beta\n3 4\n\nlast line\n"

// runProgram runs prog over input on a fresh interpreter — the compiled
// form, or with ref the tree walk — with print redirections kept in memory
// and `getline < "aux"` reading auxFile.
func runProgram(prog *program, input string, stepLimit int, ref bool) outcome {
	var out bytes.Buffer
	files := map[string]*memFile{}
	in := newInterp(prog, &cappedWriter{w: &out, left: 1 << 20})
	in.stepLimit = stepLimit
	in.openFile = func(name string) (io.WriteCloser, error) {
		if name == "" {
			return nil, errors.New("empty file name")
		}
		files[name] = &memFile{}
		return files[name], nil
	}
	in.openRead = func(name string) (io.ReadCloser, error) {
		if name != "aux" {
			return nil, errors.New("no such file")
		}
		return io.NopCloser(strings.NewReader(auxFile)), nil
	}
	run := (&session{in: in}).run
	if ref {
		run = in.refRun
	}
	code, err := run([]namedReader{{name: "input", r: strings.NewReader(input)}})
	o := outcome{Stdout: out.String(), Files: map[string]string{}, Code: code}
	for name, f := range files {
		o.Files[name] = f.String()
	}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

// sameAsTreeWalk runs src both ways and reports any difference in what the
// two runs showed. Programs that do not parse have nothing to compare.
func sameAsTreeWalk(t *testing.T, src, input string, stepLimit int) {
	t.Helper()
	prog, err := parse(src)
	if err != nil {
		return
	}
	got, want := runProgram(prog, input, stepLimit, false), runProgram(prog, input, stepLimit, true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("program %q over %q:\ncompiled  %+v\ntree walk %+v", src, input, got, want)
	}
}

const diffInput = "the quick brown fox\n10 9 8\n\n  3.5e0 x 7\njumps over the lazy dog\n"

// Every program of awkx_test.go is also run through the tree walk by the
// helpers that run it (runAwk, runAwkFS). Here: the parser fuzzer's seeds,
// the four benchmark programs, and the corners of control flow, assignment
// targets and builtins where a compiled form could quietly differ.
func TestCompiledEqualsTreeWalk(t *testing.T) {
	progs := append([]string{}, fuzzSeeds...)
	progs = append(progs, fieldSplitProg, wordFreqProg, regexMatchProg, arithmeticProg)
	progs = append(progs,
		// jumps, in and out of place
		`{ for (i = 1; i <= NF; i++) { if ($i ~ /^[0-9]/) continue; if (i > 3) break; printf "%s,", $i }; print "" }`,
		`{ i = 0; do { if (++i == 2) continue; if (i > 3) break; printf "%d", i } while (i < 10); print "" }`,
		`{ while (1) { for (;;) break; if (++n > 2) break }; print n }`,
		`BEGIN { break }`, `BEGIN { continue; print "no" }`, `BEGIN { if (0) break; print "ok" }`,
		`BEGIN { return 3 }`, `function f() { break } BEGIN { while (1) { f(); print "no" } }`,
		`function f() { continue } BEGIN { for (k = 0; k < 2; k++) { f(); print "no" } }`,
		`BEGIN { for (;;exit 4) print "once" } END { print "end" }`,
		`BEGIN { for (i = 0; i < 3; i++) for (;;continue) break; print i }`,
		`BEGIN { next; print "no" } BEGIN { print "second" } { print } END { print NR }`,
		`END { next }`, `END { exit 7; print "no" }`, `{ exit 2 } END { print "end", NR }`,
		`{ exit } END { exit }`, `NR == 2 { exit 5 } END { print "end" }`,
		`function skip() { next } { if (NF == 0) skip(); print NF }`,
		`function skip() { next } skip() { print "no" } { print "yes" }`,
		`function die(c) { exit c } NR == 2 { print die(3) "no" } { print } END { print "end" }`,
		`function die(c) { exit c } die(NR + 1) { print "no" } END { print "end" }`,
		`function g() { next } function f() { g(); return 1 } { x = f() + 1; print "no" } END { print x + 0 }`,
		`function f(a,  k, n) { for (k in a) { if (k == 2) continue; n++ } return n } BEGIN { split("a b c", p); print f(p) }`,
		`function f(a,  k) { for (k in a) if (k == 2) return k; return "none" } BEGIN { split("a b c", p); print f(p), length(p) }`,
		`function f(n) { if (n <= 0) return 0; return n + f(n - 1) } BEGIN { print f(50) }`,
		`function f(n) { return f(n + 1) } BEGIN { f(0) }`,
		`function f(n) { while (n-- > 0) g(n) } function g(n) { for (;;) if (n++ > 150) return } BEGIN { while (1) f(100) }`,
		`BEGIN { f(1) }`, `function f(a) { return a } BEGIN { f(1, 2) }`, `function f(a) { a[1] = 1 } BEGIN { f(x); print length(x) }`,
		// assignment targets
		`{ $3 = "X"; print; print NF; $0 = "a b"; print $2, NF; NF = 4; print; $(NF + 2) = "z"; print NF ":" $0 }`,
		`{ n = 1; $(n++) += 1; $n++; --$n; print n, $0; x = $1++ + ++$2; print x, $0 }`,
		`BEGIN { a[i++]++; a[i++] += 2; --a[i++]; x = a[i++]--; print i, x, length(a); for (k in a) printf "%s=%s ", k, a[k] }`,
		`BEGIN { a["k"]; print length(a), ("k" in a); b[1, 2] = 3; print ((1, 2) in b), (1 in b); delete b[1, 2]; print length(b) }`,
		`BEGIN { x = y = 3; x ^= 2; y %= 2; z -= 1; print x, y, z, (w += 0), w++ + ++w }`,
		`{ NR = 10; print NR; NF = 2; print; NF++; print NF; for (NF in a) print "no" }`,
		`function f(n,  a) { n++; a[n] = n; n += 2; return n a[1] } BEGIN { print f(0), f("x") }`,
		`BEGIN { $(-1) = 1 }`, `BEGIN { $(2^53) = 1 }`, `BEGIN { NF = 1e9 }`, `BEGIN { $1e9 = 1 }`, `{ print $(-1) "|" $1e9 "|" $(0/0) }`, `BEGIN { NF = -3; print NF }`,
		// builtins, in and out of their arity
		`BEGIN { print substr("hello", 2), substr("hello", 0, 2), substr("hello", -1), substr("hello", 2, 100), index("abc", "c"), length(), length("xy") }`,
		`{ print length, length($0), toupper($1), tolower("ABC"), int(-3.9), sqrt(16), exp(0), log(1), sin(0), cos(0), atan2(0, 1) }`,
		`BEGIN { print substr("x") }`, `BEGIN { print index("x") }`, `BEGIN { print rand(1) }`, `BEGIN { print srand(1, 2) }`, `BEGIN { print length(1, 2) }`,
		`BEGIN { print sprintf() }`, `BEGIN { print toupper() }`, `BEGIN { print atan2(1) }`, `BEGIN { print match("x") }`, `BEGIN { if (0) print substr("x"); print "ok" }`,
		`BEGIN { srand(7); a = rand(); srand(7); print (a == rand()), srand(), srand() }`,
		`{ n = split($0, w); for (k in w) printf "%s:%s ", k, w[k]; print n; print split($0, v, /[aeiou]/), v[2]; print split($0, u, "o"), u[1] }`,
		`BEGIN { print split("a b", 1) }`, `function f() { print "f"; return "a b" } BEGIN { print split(f(), 1) }`,
		`{ t = $0; print gsub(/o/, "[&]"), $0; print sub("q", "\\&", t), t; print gsub(/x/, "y", $2), NF; print sub(/o/, "0", a[NR]), length(a) }`,
		`BEGIN { print sub(/a/, "b", "lit") }`, `BEGIN { s = "aaa"; print gsub("a", "b", s), s, gsub(/$/, "!", s), s }`,
		`{ print match($0, /[0-9]+/), RSTART, RLENGTH; print match($0, "o."), RSTART, RLENGTH }`, `BEGIN { print match("x", "(") }`, `BEGIN { print "x" ~ "(" }`,
		`{ print ($0 ~ "qu"), ($0 !~ /o/), ($1 ~ $1), /the/ + 0, !/the/, (/a/ && /b/), (/z/ || NR) }`,
		`BEGIN { printf "%d %5.2f %-4s| %c%c %x %o %u %e %%\n", "12abc", 3.14159, "ab", 65, "hello", 255, 8, -1, 12345.678; printf "%*d|%.*f\n", 5, 42, 2, 3.14159 }`,
		`BEGIN { printf "%d %s %s\n", 1 }`, `BEGIN { printf "%z", 1 }`, `BEGIN { printf "%5" }`, `BEGIN { printf("%s-%s\n", "a", "b") }`,
		// print, redirection, getline
		`{ print > "out"; print $1, NF > "out"; printf "%s\n", $2 > "f" NR } END { print "done" > "out" }`,
		`BEGIN { print "x" > "" }`, `BEGIN { OFS = "-"; ORS = "|" } { $1 = $1; print; print $1, $2 }`,
		`BEGIN { while ((getline line < "aux") > 0) n++; print n, line; print (getline < "aux"), (getline x < "none") }`,
		`BEGIN { getline < "aux"; print NF, $2; getline $2 < "aux"; print; getline NF < "aux"; print NF; getline a[1] < "aux"; print a[1] }`,
		// values
		`{ print ($1 < $2), ($1 == $3), ($1 < "a"), (x < 1), (x == ""), ("10" < "9"), ($2 < 10), -$1, +$2, !$3, 1 - -1, 2 ^ 3 ^ 2, 7 % 3, 1 / 4 }`,
		`{ print (NF ? "some" : "none"), (NF > 3 ? $4 : $1), NF == 0 ? "empty" : NF }`, `BEGIN { print 1 / 0, -1 / 0, (0 / 0 == 0 / 0), 2 ^ 1024, 1e16, 1e15 + 0.5, 100000 * 100000, 0.1 + 0.2 }`,
		`BEGIN { CONVFMT = "%d"; a = 12; b = a ""; print b, 1 " " 2, 1 2, -1 " " -1; print length(12345), "a" > "b" }`,
		`BEGIN { SUBSEP = ":"; a["x", "y"] = 1; for (k in a) print k; FS = ","; } { print $1 } END { print FILENAME, NR }`,
	)
	for _, src := range progs {
		sameAsTreeWalk(t, src, diffInput, 1<<17)
		sameAsTreeWalk(t, src, "", 5000)
	}
}

// refGawk is Gawk.Run on the tree walk.
func refGawk(ctx *apps.Context, args []string) error {
	fs, assigns, progText, files, err := parseCLI(args)
	if err != nil {
		return err
	}
	in, err := load(ctx, ctx.Stdout, fs, assigns, progText)
	if err != nil {
		return err
	}
	inputs := []namedReader{{name: "", r: ctx.In()}}
	if len(files) > 0 {
		inputs = nil
	}
	for _, name := range files {
		f, err := ctx.Open(name)
		if err != nil {
			return apps.Exitf(2, "gawk: %v", err)
		}
		defer f.Close()
		inputs = append(inputs, namedReader{name: name, r: f})
	}
	code, err := in.refRun(inputs)
	if err != nil {
		return apps.Exitf(2, "gawk: %v", err)
	}
	if code != 0 {
		return apps.Exitf(code, "")
	}
	return nil
}

// The three broken evaluators the issue names, each caught by name.

func TestContinueInForInUnderCall(t *testing.T) {
	expectAwk(t, `function odd(a,  k, n) { for (k in a) { if (k % 2 == 0) continue; n++ } return n }
		BEGIN { split("a b c d e", p); for (i = 0; i < 2; i++) total += odd(p); print total, i }`, "", "6 2\n")
}

func TestNextInsideFunction(t *testing.T) {
	expectAwk(t, `function skipBlank() { if (NF == 0) next; return NF } { n += skipBlank(); print NR } END { print n }`,
		"a b\n\nc\n", "1\n3\n3\n")
	expectAwk(t, `function deep() { next } function f() { deep(); print "no" } { f(); print "no" } END { print NR }`, "x\ny\n", "2\n")
}

func TestExitInsideFunction(t *testing.T) {
	out, code := runAwk(t, `function die(c) { print "dying"; exit c } { if (NR == 2) x = die(3) + 1; print } END { print "end", x + 0 }`, "a\nb\nc\n")
	if out != "a\ndying\nend 0\n" || code != 3 {
		t.Fatalf("out %q code %d", out, code)
	}
}

// A program that never reads cannot be stopped by its reads. Each of these
// spun a host goroutine for ever, or until 10⁸ passes of its innermost loop.
var spinners = []string{
	`BEGIN { while (1) {} }`,
	`BEGIN { for (;;) for (;;) {} }`,
	`function f() { f() } BEGIN { f() }`,
}

func TestStepLimit(t *testing.T) {
	for _, src := range spinners {
		start := time.Now()
		var stderr bytes.Buffer
		err := Gawk{}.Run(&apps.Context{Stdin: strings.NewReader("x\n"), Stdout: io.Discard, Stderr: &stderr}, []string{src})
		if err == nil || !strings.Contains(err.Error(), "step limit exceeded") && !strings.Contains(err.Error(), "call stack overflow") {
			t.Errorf("%s: %v, want the step limit", src, err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: took %v", src, d)
		}
	}
	// The count is per record: a long input of cheap records is not a spin.
	prog, err := parse(`{ for (i = 0; i < 40; i++) n++ } END { print n }`)
	if err != nil {
		t.Fatal(err)
	}
	if o := runProgram(prog, strings.Repeat("r\n", 1000), 50, false); o.Stdout != "40000\n" || o.Err != "" {
		t.Errorf("1000 records of 41 steps under a limit of 50: %+v", o)
	}
	if o := runProgram(prog, "r\n", 40, false); !strings.Contains(o.Err, "step limit exceeded") {
		t.Errorf("one record of 41 steps under a limit of 40: %+v", o)
	}
}

// A record cannot have more fields than bytes, so nothing may ask for
// more than the longest line has: these allocated 16 GB of empty strings.
func TestFieldCountIsBounded(t *testing.T) {
	for _, src := range []string{
		`BEGIN { $1e9 = 1 }`, `BEGIN { NF = 1e9 }`, `{ $(2^53) = "x" }`, `{ $(-1) = "x" }`,
		`{ NF += 1e10 }`, `BEGIN { $1e9++ }`, `{ sub(/^/, "x", $1e9) }`,
	} {
		out, code := runAwk(t, src, "a b\n")
		if code != 2 || out != "" {
			t.Errorf("%s: exit %d, output %q", src, code, out)
		}
	}
	_, code := runAwk(t, `BEGIN { print }`, "", "-v", "NF=1e9")
	if code != 2 {
		t.Errorf("-v NF=1e9: exit %d", code)
	}
	expectAwk(t, fmt.Sprintf(`{ print $(-1) "|" $1e9 "|" $(2^53); NF = -2; print NF; $%d = "z"; print NF }`, 100), "a\n", "||\n0\n100\n")
}

// A string that doubles each pass used to grow until the host ran out of
// memory: 26 passes make 64 MiB, with 26 steps counted. Each way a program
// builds a string now stops at apps.MaxOutput, in bounded memory and time.
func TestStringLengthIsBounded(t *testing.T) {
	for _, src := range []string{
		`BEGIN { s = "x"; while (1) s = s s }`,
		`BEGIN { s = "x"; while (1) gsub(/x*/, "&&", s) }`,
		`BEGIN { s = "x"; while (1) s = sprintf("%s%s", s, s) }`,
		`BEGIN { FS = ","; s = "x"; while (1) { $0 = s; $2 = s; s = $0 } }`,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := Gawk{}.Run(&apps.Context{Stdin: strings.NewReader(""), Stdout: io.Discard, Stderr: io.Discard}, []string{src})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "string longer than") {
			t.Errorf("%s: %v, want the string limit", src, err)
		}
		// gsub's /x*/ scans 128 MiB of x's on the way, about 3 s, and twenty
		// times that under the race detector.
		if d := time.Since(start); d > 2*time.Minute {
			t.Errorf("%s: took %v", src, d)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<30 {
			t.Errorf("%s: allocated %d MiB", src, n>>20)
		}
	}
	// What a program gathers a record at a time stays well inside it.
	var out bytes.Buffer
	input := strings.Repeat(strings.Repeat("y", 64<<10-1)+"\n", 128) // 8 MiB
	err := Gawk{}.Run(&apps.Context{Stdin: strings.NewReader(input), Stdout: &out, Stderr: io.Discard},
		[]string{`{ s = s $0 "\n" } END { print length(s) }`})
	if err != nil || out.String() != "8388608\n" {
		t.Errorf("8 MiB gathered: %v %q", err, out.String())
	}
}
