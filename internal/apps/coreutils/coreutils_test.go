package coreutils

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"compstor/internal/apps"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

func runTool(t *testing.T, p apps.Program, stdin string, args ...string) (string, int) {
	t.Helper()
	var out bytes.Buffer
	ctx := &apps.Context{
		Stdin:  strings.NewReader(stdin),
		Stdout: &out,
		Stderr: &bytes.Buffer{},
	}
	err := p.Run(ctx, args)
	return out.String(), apps.ExitCode(err)
}

func TestCatStdin(t *testing.T) {
	out, code := runTool(t, Cat{}, "line1\nline2\n")
	if code != 0 || out != "line1\nline2\n" {
		t.Fatalf("out=%q code=%d", out, code)
	}
}

func TestWCCounts(t *testing.T) {
	out, _ := runTool(t, WC{}, "one two\nthree\n")
	if !strings.Contains(out, "2") || !strings.Contains(out, "3") || !strings.Contains(out, "14") {
		t.Fatalf("wc output %q", out)
	}
}

func TestWCLinesOnly(t *testing.T) {
	out, _ := runTool(t, WC{}, "a\nb\nc\n", "-l")
	if strings.TrimSpace(out) != "3" {
		t.Fatalf("wc -l = %q", out)
	}
}

func TestWCWordsOnly(t *testing.T) {
	out, _ := runTool(t, WC{}, "a b  c\nd\n", "-w")
	if strings.TrimSpace(out) != "4" {
		t.Fatalf("wc -w = %q", out)
	}
}

func TestWCTwoCounts(t *testing.T) {
	in := "a b  c\nd\n" // 2 lines, 4 words, 9 bytes
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-l", "-w"}, "      2       4\n"},
		{[]string{"-w", "-c"}, "      4       9\n"},
		{[]string{"-l", "-c"}, "      2       9\n"},
		{[]string{"-c", "-w"}, "      4       9\n"}, // wc's order, not the flags'
	} {
		if out, _ := runTool(t, WC{}, in, tc.args...); out != tc.want {
			t.Errorf("wc %v = %q, want %q", tc.args, out, tc.want)
		}
	}
}

func TestHead(t *testing.T) {
	input := "1\n2\n3\n4\n5\n"
	out, _ := runTool(t, Head{}, input, "-n", "2")
	if out != "1\n2\n" {
		t.Fatalf("head = %q", out)
	}
	out, _ = runTool(t, Head{}, input, "-n3")
	if out != "1\n2\n3\n" {
		t.Fatalf("head -n3 = %q", out)
	}
}

func TestTail(t *testing.T) {
	out, _ := runTool(t, Tail{}, "1\n2\n3\n4\n5\n", "-n", "2")
	if out != "4\n5\n" {
		t.Fatalf("tail = %q", out)
	}
}

func TestTailRing(t *testing.T) {
	five := "1\n2\n3\n4\n5\n"
	for _, tc := range []struct{ n, in, want string }{
		{"0", five, ""}, // used to index an empty ring and panic the host
		{"0", "", ""},
		{"1", five, "5\n"},
		{"5", five, five},
		{"7", five, five},
		{"3", "1\n2\n3\n4\n5", "3\n4\n5\n"},
		{"1000000000000", five, five}, // the ring grows with the input, not with -n
	} {
		if out, code := runTool(t, Tail{}, tc.in, "-n", tc.n); code != 0 || out != tc.want {
			t.Errorf("tail -n %s of %q = %q (exit %d), want %q", tc.n, tc.in, out, code, tc.want)
		}
	}
	var in, want strings.Builder
	for i := 0; i < 100000; i++ {
		fmt.Fprintln(&in, "line", i)
		if i >= 99000 {
			fmt.Fprintln(&want, "line", i)
		}
	}
	if out, code := runTool(t, Tail{}, in.String(), "-n", "1000"); code != 0 || out != want.String() {
		t.Errorf("tail -n 1000 of 100000 lines: exit %d, %d bytes, want %d", code, len(out), want.Len())
	}
}

// failAfter serves the first n bytes of its text and then err.
type failAfter struct {
	text string
	n    int
	err  error
}

func (r *failAfter) Read(b []byte) (int, error) {
	if r.n == 0 {
		return 0, r.err
	}
	k := copy(b, r.text[:r.n])
	r.text, r.n = r.text[k:], r.n-k
	return k, nil
}

// A read that fails mid-stream must fail the tool with the cause still
// reachable through errors.Is; head, tail, sort, uniq and cut used to print
// what they had and exit 0.
func TestReadErrorsFailTheTool(t *testing.T) {
	errMedia := errors.New("uncorrectable page")
	tools := []struct {
		p    apps.Program
		args []string
	}{
		{Head{}, []string{"-n", "100"}},
		{Tail{}, nil},
		{Sort{}, nil},
		{Uniq{}, nil},
		{Cut{}, []string{"-d", " ", "-f", "1"}},
		{Tr{}, []string{"a", "b"}},
		{WC{}, nil},
		{Cksum{}, nil},
	}
	for _, tool := range tools {
		run := func(ctx *apps.Context, want error) {
			t.Helper()
			ctx.Stdout, ctx.Stderr = io.Discard, io.Discard
			err := tool.p.Run(ctx, tool.args)
			if apps.ExitCode(err) != 1 || !errors.Is(err, want) {
				t.Errorf("%s: error %v (exit %d), want exit 1 wrapping %q", tool.p.Name(), err, apps.ExitCode(err), want)
			}
		}
		run(&apps.Context{Stdin: &failAfter{text: "a b\nc d\ne f\n", n: 10, err: errMedia}}, errMedia)
		if tool.p.Name() != "tr" && tool.p.Name() != "wc" && tool.p.Name() != "cksum" { // no lines, no limit
			run(&apps.Context{Stdin: strings.NewReader(strings.Repeat("x", 4<<20+1))}, bufio.ErrTooLong)
		}
		eng := sim.NewEngine()
		eng.Go("expired", func(p *sim.Proc) {
			p.Wait(time.Millisecond)
			run(&apps.Context{Proc: p, Deadline: p.Now(), Stdin: strings.NewReader("a b\n")}, apps.ErrDeadline)
			cancel := &apps.CancelToken{}
			cancel.Cancel()
			run(&apps.Context{Cancel: cancel, Stdin: strings.NewReader("a b\n")}, apps.ErrCanceled)
		})
		eng.Run()
		eng.Shutdown()
	}
}

// A failing output must fail tr too: the deferred Flush used to drop it.
func TestTrReportsWriteError(t *testing.T) {
	errFull := errors.New("device full")
	for _, size := range []int{10, 100000} {
		ctx := &apps.Context{Stdin: strings.NewReader(strings.Repeat("a", size)), Stdout: failingWriter{errFull}, Stderr: io.Discard}
		if err := (Tr{}).Run(ctx, []string{"a", "b"}); apps.ExitCode(err) != 1 || !errors.Is(err, errFull) {
			t.Errorf("tr of %d bytes into a failing writer: %v", size, err)
		}
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

func TestSortLexAndNumeric(t *testing.T) {
	out, _ := runTool(t, Sort{}, "b\na\nc\n")
	if out != "a\nb\nc\n" {
		t.Fatalf("sort = %q", out)
	}
	out, _ = runTool(t, Sort{}, "10\n9\n2\n")
	if out != "10\n2\n9\n" {
		t.Fatalf("lex sort of numbers = %q", out)
	}
	out, _ = runTool(t, Sort{}, "10\n9\n2\n", "-n")
	if out != "2\n9\n10\n" {
		t.Fatalf("sort -n = %q", out)
	}
	out, _ = runTool(t, Sort{}, "1\n3\n2\n", "-rn")
	if out != "3\n2\n1\n" {
		t.Fatalf("sort -rn = %q", out)
	}
	out, _ = runTool(t, Sort{}, "b\na\nb\n", "-u")
	if out != "a\nb\n" {
		t.Fatalf("sort -u = %q", out)
	}
}

func TestUniq(t *testing.T) {
	out, _ := runTool(t, Uniq{}, "a\na\nb\na\n")
	if out != "a\nb\na\n" {
		t.Fatalf("uniq = %q", out)
	}
	out, _ = runTool(t, Uniq{}, "a\na\nb\n", "-c")
	if !strings.Contains(out, "2 a") || !strings.Contains(out, "1 b") {
		t.Fatalf("uniq -c = %q", out)
	}
}

func TestCut(t *testing.T) {
	out, _ := runTool(t, Cut{}, "a:b:c\nd:e:f\n", "-d", ":", "-f", "2")
	if out != "b\ne\n" {
		t.Fatalf("cut = %q", out)
	}
	out, _ = runTool(t, Cut{}, "a:b:c\n", "-d:", "-f1,3")
	if out != "a:c\n" {
		t.Fatalf("cut multi = %q", out)
	}
	out, _ = runTool(t, Cut{}, "a:b:c:d\n", "-d:", "-f2-3")
	if out != "b:c\n" {
		t.Fatalf("cut range = %q", out)
	}
	// Each field once, in input order, whatever the list's order or overlap.
	out, _ = runTool(t, Cut{}, "a:b:c\n", "-d:", "-f3,1")
	if out != "a:c\n" {
		t.Fatalf("cut unordered = %q", out)
	}
	out, _ = runTool(t, Cut{}, "a:b:c\n", "-d:", "-f1-2,2")
	if out != "a:b\n" {
		t.Fatalf("cut overlapping = %q", out)
	}
}

func TestCutRequiresFields(t *testing.T) {
	_, code := runTool(t, Cut{}, "x\n")
	if code == 0 {
		t.Fatal("cut without -f should fail")
	}
}

func TestEcho(t *testing.T) {
	out, _ := runTool(t, Echo{}, "", "hello", "world")
	if out != "hello world\n" {
		t.Fatalf("echo = %q", out)
	}
}

func TestCksumDeterministic(t *testing.T) {
	a, _ := runTool(t, Cksum{}, "payload")
	b, _ := runTool(t, Cksum{}, "payload")
	if a != b {
		t.Fatal("cksum not deterministic")
	}
	c, _ := runTool(t, Cksum{}, "different")
	if a == c {
		t.Fatal("cksum collision on different input")
	}
}

func TestUnknownFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		p    apps.Program
		args []string
	}{
		{WC{}, []string{"-z"}},
		{Sort{}, []string{"-z"}},
		{Uniq{}, []string{"-z"}},
		{Cut{}, []string{"-z"}},
		{Head{}, []string{"-z"}},
	} {
		if _, code := runTool(t, tc.p, "", tc.args...); code == 0 {
			t.Errorf("%s accepted bad flag", tc.p.Name())
		}
	}
}

func TestMissingFileFails(t *testing.T) {
	// No FS in context: file args must error, not panic.
	for _, p := range []apps.Program{Cat{}, WC{}, Head{}, Tail{}, Sort{}, Uniq{}, Cksum{}} {
		if _, code := runTool(t, p, "", "no-such-file"); code == 0 {
			t.Errorf("%s with missing file succeeded", p.Name())
		}
	}
}

// benchTool runs p as a stream filter over generated book text at the size
// of one served file and at 1 MiB.
func benchTool(b *testing.B, p apps.Program, args ...string) {
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
				if err := p.Run(ctx, args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWC(b *testing.B)    { benchTool(b, WC{}) }
func BenchmarkCksum(b *testing.B) { benchTool(b, Cksum{}) }
func BenchmarkTr(b *testing.B)    { benchTool(b, Tr{}, "a-z", "A-Z") }
