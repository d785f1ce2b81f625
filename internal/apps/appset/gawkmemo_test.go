package appset

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"compstor/internal/apps"
	"compstor/internal/cpu"
	"compstor/internal/minfs"
	"compstor/internal/sim"
)

// gawkRun is everything a gawk command shows of itself: what it printed, its
// exit code and error text, the files it leaves, the device operations it
// asked for, the virtual time it ends at and the bytes it was charged.
type gawkRun struct {
	Stdout, Err string
	Code        int
	Files       map[string]string
	Device      string
	End         sim.Time
	Charged     map[cpu.Class]int64
}

// gawkOutputs are the names a run may write: the shell's redirection, and
// what the fuzz programs print to.
var gawkOutputs = []string{"out", "o", "f0", "f1", "f2"}

// runGawk runs `gawk args... f0 .. f<n-1>` over files on a fresh device,
// charged one virtual nanosecond a byte, under a 3 ms deadline. With cancelAt > 0 its cancel token
// fires at the cancelAt-th charged read; with shell, it runs as
// `sh -c "gawk ... > out"`, so that its stdout is a charged file.
func runGawk(reg *apps.Registry, args []string, files [][]byte, cancelAt int, shell bool) gawkRun {
	r := gawkRun{Files: map[string]string{}, Charged: map[cpu.Class]int64{}}
	dev := &pageLog{store: map[int64][]byte{}}
	view := minfs.NewView(minfs.NewFS(4096, 4096), dev)
	eng := sim.NewEngine()
	eng.Go("run", func(p *sim.Proc) {
		argv := append([]string{}, args...)
		for i, f := range files {
			argv = append(argv, fmt.Sprint("f", i))
			if err := view.WriteFile(p, argv[len(argv)-1], f); err != nil {
				panic(err)
			}
		}
		dev.log = nil
		var out bytes.Buffer
		reads, token := 0, &apps.CancelToken{}
		ctx := &apps.Context{Proc: p, FS: view, Stdout: &out, Stderr: io.Discard, Cancel: token, Lookup: reg.Lookup,
			Deadline: p.Now().Add(3 * time.Millisecond)} // a spinning program stops after three charges of its steps
		ctx.Charge = func(c cpu.Class, n int64) {
			if c != cpu.ClassCat {
				if reads++; reads == cancelAt {
					token.Cancel()
				}
			}
			r.Charged[c] += n
			p.Wait(time.Duration(n))
		}
		name := "gawk"
		if shell {
			quoted := make([]string, len(argv))
			for i, a := range argv {
				quoted[i] = "'" + a + "'"
			}
			name, argv = "sh", []string{"-c", "gawk " + strings.Join(quoted, " ") + " > out"}
		}
		prog, _ := reg.Lookup(name)
		ctx.Class = prog.Class()
		err := prog.Run(ctx, argv)
		r.Stdout, r.Code, r.End = out.String(), apps.ExitCode(err), p.Now()
		if err != nil {
			r.Err = err.Error()
		}
		r.Device = dev.runs()
		for _, name := range gawkOutputs {
			if data, err := view.ReadFile(p, name); err == nil {
				r.Files[name] = string(data)
			}
		}
	})
	eng.Run()
	return r
}

// split cuts text into n files at n-1 points moved by shift bytes: a cut
// may fall inside a line, which then ends one file and starts the next.
func split(text []byte, n, shift int) [][]byte {
	files := make([][]byte, n)
	prev := 0
	for i := range files {
		cut := len(text)
		if i < n-1 {
			cut = min(max((i+1)*len(text)/n+shift, prev), len(text))
		}
		files[i], prev = text[prev:cut], cut
	}
	return files
}

// variant derives input B from A's text: the same, record k changed, cut
// short, extended, or split between the files at other points.
func variant(text []byte, kind, k int) []byte {
	lines := bytes.SplitAfter(text, []byte("\n"))
	k %= len(lines)
	switch kind % 5 {
	case 1:
		lines[k] = append([]byte("changed "), lines[k]...)
	case 2:
		return text[:k*len(text)/len(lines)]
	case 3:
		return append(bytes.Clone(text), "\nmore words here\nand the last"...)
	}
	return bytes.Join(lines, nil)
}

// FuzzGawkMemo holds gawk through a memo to the program run bare: one argv
// runs twice on a memo-bound registry and once on a bare one, over input A
// and then over input B (variant's), and every run must show what the bare
// run shows. B's runs are where the injections go — a cancel at a charged
// read, stdout through the shell into a charged file — so that a run A
// recorded is replayed into them.
func FuzzGawkMemo(f *testing.F) {
	text := "the quick brown fox\njumps over\n\nthe lazy dog 12 7\nand the last line"
	for _, seed := range []struct {
		prog           string
		files, kind, k int
		cancelAt       int
		shell          bool
	}{
		{`{ for (i = 1; i <= NF; i++) f[$i]++ } END { n = 0; for (w in f) n++; print n }`, 1, 0, 0, 0, false},
		{`{ print NR ": " $1 } END { print NR }`, 1, 1, 2, 0, false},
		{`{ print NR ": " $1 } END { print NR }`, 2, 2, 3, 0, true},
		{`{ print FILENAME, $2 } END { print "end" }`, 3, 3, 0, 0, false},
		{`{ print FILENAME, NR }`, 3, 4, 5, 0, true},
		{`BEGIN { printf "begin " } { printf "%s|", $1 } END { print "" }`, 2, 1, 4, 3, false},
		{`{ print length($0) }`, 1, 0, 0, 1, true},
		{`BEGIN { print "only" }`, 1, 1, 1, 0, false},
		{`NR == 2 { exit } { print }`, 1, 3, 0, 0, false},
		{`{ print } END { while ((getline l < "f0") > 0) n++; print n }`, 2, 1, 3, 0, false},
		{`{ print > "o" } END { print NR }`, 1, 1, 1, 0, false},
		{`{ for (i = 0; i < 70000; i++) n++ } END { print n }`, 1, 0, 0, 1, false},
		{`NR == 1 { for (i = 0; i < 1100000; i++) n++ } END { print n }`, 1, 0, 0, 0, false},
		{`END { print $0, NR }`, 2, 3, 1, 0, true},
		{`NR == 2 { while (1) n++ } { print }`, 1, 1, 3, 0, false},
	} {
		f.Add(seed.prog, text, uint8(seed.files), uint8(seed.kind), uint8(seed.k), uint8(seed.cancelAt), seed.shell)
	}
	f.Fuzz(func(t *testing.T, prog, text string, files, kind, k, cancelAt uint8, shell bool) {
		if len(prog) > 512 || len(text) > 1<<12 {
			return
		}
		n := 1 + int(files)%3
		a := split([]byte(text), n, 0)
		b := split(variant([]byte(text), int(kind), int(k)), n, 0)
		if kind%5 == 4 {
			b = split([]byte(text), n, 1+int(k)%7)
		}
		memo, bare := Base(), bareBase()
		for _, in := range []struct {
			name     string
			files    [][]byte
			cancelAt int
			shell    bool
		}{{"A", a, 0, false}, {"B", b, int(cancelAt), shell}} {
			want := runGawk(bare, []string{prog}, in.files, in.cancelAt, in.shell)
			for i := 1; i <= 2; i++ {
				if got := runGawk(memo, []string{prog}, in.files, in.cancelAt, in.shell); !reflect.DeepEqual(got, want) {
					t.Fatalf("%q over %s, memo run %d:\n got  %+v\n want %+v", prog, in.name, i, got, want)
				}
			}
		}
	})
}
