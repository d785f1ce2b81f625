package appset

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/apps/awkx"
	"compstor/internal/apps/bzip2x"
	"compstor/internal/apps/gzipx"
	"compstor/internal/apps/splitscan"
	"compstor/internal/minfs"
	"compstor/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/readpattern.golden from this checkout")

// recorder stands on both sides of a tool. As its input it serves data the
// way minfs.File.Read does — every call fills b unless the data runs out,
// then (0, io.EOF) — and logs each call as len(b)>n, run-length encoded. As
// its output it logs the writes between two reads as w<count>:<bytes>, so
// the log also pins where a tool's output falls among its reads.
type recorder struct {
	data []byte
	out  bytes.Buffer
	log  []string
	last string
	reps int
	ws   int
	wn   int
}

func (r *recorder) Read(b []byte) (n int, err error) {
	n = copy(b, r.data)
	r.data = r.data[n:]
	call := fmt.Sprintf("%d>%d", len(b), n)
	if n == 0 && len(b) > 0 {
		err = io.EOF
		call += ",EOF"
	}
	if call != r.last || r.ws > 0 {
		r.flush()
		r.last = call
	}
	r.reps++
	return n, err
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.ws == 0 {
		r.flush()
	}
	r.ws++
	r.wn += len(b)
	return r.out.Write(b)
}

func (r *recorder) flush() {
	switch {
	case r.ws > 0:
		r.log = append(r.log, fmt.Sprintf("w%d:%d", r.ws, r.wn))
	case r.reps > 1:
		r.log = append(r.log, fmt.Sprintf("%dx%s", r.reps, r.last))
	case r.reps == 1:
		r.log = append(r.log, r.last)
	}
	r.reps, r.ws, r.wn, r.last = 0, 0, 0, ""
}

// patternText is size bytes of words in lines of 1–120 bytes, drawn from
// an LCG so it depends on nothing but this file, and never ends in a
// newline: the last line is unterminated, and at 65,535–65,537 bytes and
// beyond a line straddles every 64 KiB block edge.
func patternText(size int) []byte {
	out := make([]byte, size)
	lcg := uint64(size)*2862933555777941757 + 3037000493
	next := func(n uint64) int {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int((lcg >> 33) % n)
	}
	line, word := next(120), 1+next(9)
	for i := range out {
		switch {
		case line == 0:
			out[i] = '\n'
			line, word = 1+next(120), 1+next(9)
			continue
		case word == 0:
			out[i] = ' '
			word = 1 + next(9)
		default:
			out[i] = "ethaoinsrdlu"[next(12)]
			word--
		}
		line--
	}
	if size > 0 && out[size-1] == '\n' {
		out[size-1] = 'e'
	}
	return out
}

// pageLog is a BlockDevice of 4 KiB pages that logs each read, write and
// trim asked of it as r, w or t and its page count.
type pageLog struct {
	store map[int64][]byte
	log   []string
}

func (d *pageLog) PageSize() int { return 4096 }
func (d *pageLog) Pages() int64  { return 4096 }

func (d *pageLog) ReadPages(p *sim.Proc, lpn, count int64) ([]byte, error) {
	d.log = append(d.log, fmt.Sprint("r", count))
	out := make([]byte, count*4096)
	for i := range count {
		copy(out[i*4096:], d.store[lpn+i])
	}
	return out, nil
}

func (d *pageLog) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	d.log = append(d.log, fmt.Sprint("w", len(data)/4096))
	for i := 0; i < len(data); i += 4096 {
		d.store[lpn+int64(i/4096)] = bytes.Clone(data[i : i+4096])
	}
	return nil
}

func (d *pageLog) TrimPages(p *sim.Proc, lpn, count int64) error {
	d.log = append(d.log, fmt.Sprint("t", count))
	return nil
}

// runs is the log with repeats run-length encoded, as the recorder's.
func (d *pageLog) runs() string {
	var out []string
	for i := 0; i < len(d.log); {
		j := i + 1
		for j < len(d.log) && d.log[j] == d.log[i] {
			j++
		}
		if j-i > 1 {
			out = append(out, fmt.Sprintf("%dx%s", j-i, d.log[i]))
		} else {
			out = append(out, d.log[i])
		}
		i = j
	}
	return strings.Join(out, " ")
}

// TestReadPatternPinned pins the rule the streaming tools keep: the
// buffer a tool reads into sizes the device reads it issues, and what it
// reads is charged when it is read, so the sequence of Read calls is part
// of the model. The golden file was recorded from the tools as they stood
// before they went block-granular (bufio.Reader.ReadByte loops, a fresh
// scanner buffer per stream); every tool must keep handing its input the
// same calls and printing the same bytes. The codecs' lines came later:
// they read their file in one Read at its size, so the device reads each
// of its pages once, in one run.
func TestReadPatternPinned(t *testing.T) {
	reg := Base()
	tools := [][]string{
		{"wc"},
		{"cksum"},
		{"tr", "a-z", "A-Z"},
		{"tr", "-d", "aeiou"},
		{"grep", "-c", "the"},
		{"gawk", "{ n += NF } END { print n, NR }"},
		{"sort"},
		{"head", "-n", "2"},
		{"tail", "-n", "2"},
		{"uniq", "-c"},
		{"cut", "-d", " ", "-f", "2"},
	}
	sizes := []int{0, 1, 65535, 65536, 65537, 204801}
	var got strings.Builder
	for _, argv := range tools {
		prog, _ := reg.Lookup(argv[0])
		for _, size := range sizes {
			data := patternText(size)
			n := int64(size)
			for _, via := range []struct {
				name       string
				start, end int64
			}{{"direct", 0, 0}, {"split-whole", 0, n}, {"split-mid", n / 3, 2 * n / 3}} {
				rec := &recorder{data: data}
				var in io.Reader = rec
				if via.name != "direct" {
					rec.data = data[splitscan.Pos(via.start):]
					in = splitscan.NewReader(rec, via.start, via.end, n)
				}
				ctx := &apps.Context{Stdin: in, Stdout: rec, Stderr: io.Discard, Class: prog.Class()}
				if err := prog.Run(ctx, argv[1:]); err != nil && apps.ExitCode(err) != 1 {
					t.Fatalf("%q over %d bytes (%s): %v", argv, size, via.name, err)
				}
				rec.flush()
				fmt.Fprintf(&got, "%q %d %s: %s | out %d crc %08x\n", argv, size, via.name,
					strings.Join(rec.log, " "), rec.out.Len(), crc32.ChecksumIEEE(rec.out.Bytes()))
			}
		}
	}
	// The codecs read a named file, so their lines log what the device is
	// asked for instead: each page read, write and trim.
	for _, argv := range [][]string{{"gzip", "f"}, {"gunzip", "f.gz"}, {"bzip2", "f"}, {"bunzip2", "f.bz2"}} {
		prog, _ := reg.Lookup(argv[0])
		for _, size := range sizes {
			in, out := patternText(size), "f"
			switch argv[0] {
			case "gzip", "bzip2":
				out = argv[1] + map[string]string{"gzip": ".gz", "bzip2": ".bz2"}[argv[0]]
			case "gunzip":
				in, _ = gzipx.Compress(in)
			case "bunzip2":
				in = bzip2x.Compress(in, bzip2x.Options{})
			}
			dev := &pageLog{store: map[int64][]byte{}}
			view := minfs.NewView(minfs.NewFS(4096, 4096), dev)
			eng := sim.NewEngine()
			eng.Go("run", func(p *sim.Proc) {
				if err := view.WriteFile(p, argv[1], in); err != nil {
					t.Fatal(err)
				}
				dev.log = nil
				ctx := &apps.Context{Proc: p, FS: view, Stdout: io.Discard, Stderr: io.Discard, Class: prog.Class()}
				if err := prog.Run(ctx, argv[1:]); err != nil {
					t.Fatalf("%q over %d bytes: %v", argv, size, err)
				}
				ops := dev.runs()
				data, err := view.ReadFile(p, out)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "%q %d file: %s | out %d crc %08x\n", argv, size, ops, len(data), crc32.ChecksumIEEE(data))
			})
			eng.Run()
		}
	}
	// gawk through a memo: first sight, second sight (recorded), a hit
	// (replayed), and a hit over input changed mid-file (replayed, then
	// caught up). Each must hand its input the live run's calls and write
	// what the live run writes, where it writes it.
	gawkArgs := []string{"{ n += NF; if (NR % 500 == 0) print NR, n } END { print n, NR }"}
	pattern := func(prog apps.Program, data []byte) string {
		rec := &recorder{data: data}
		if err := prog.Run(&apps.Context{Stdin: rec, Stdout: rec, Stderr: io.Discard}, gawkArgs); err != nil {
			t.Fatal(err)
		}
		rec.flush()
		return fmt.Sprintf("%s | out %d crc %08x", strings.Join(rec.log, " "), rec.out.Len(), crc32.ChecksumIEEE(rec.out.Bytes()))
	}
	memo := awkx.Program(apps.NewCodecMemo())
	data := patternText(204801)
	changed := bytes.Clone(data)
	changed[len(data)/2+bytes.IndexByte(data[len(data)/2:], ' ')] = 'x' // two words become one
	for _, c := range []struct {
		name string
		data []byte
	}{{"first-sight", data}, {"second-sight", data}, {"hit", data}, {"diverged", changed}} {
		through, live := pattern(memo, c.data), pattern(awkx.Gawk{}, c.data)
		if through != live {
			t.Errorf("gawk %s through the memo:\n got  %s\n live %s", c.name, through, live)
		}
		fmt.Fprintf(&got, "%q %d memo-%s: %s\n", gawkArgs, len(c.data), c.name, through)
	}
	const golden = "testdata/readpattern.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d cases, golden file has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("read pattern moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// A streaming tool's working memory is one pooled block: a run that finds
// the pool warm allocates its context, its readers and its one line of
// output, whatever the length of the stream. (The least of several runs,
// because a collection — or the race detector, which drops one Put in four —
// may empty the pool under any single one.)
func TestStreamingToolsAllocateNoBlocks(t *testing.T) {
	reg := Base()
	data := patternText(1 << 20)
	for _, argv := range [][]string{{"wc"}, {"cksum"}, {"grep", "-c", "the"}, {"tr", "a-z", "A-Z"}} {
		prog, _ := reg.Lookup(argv[0])
		least := uint64(1 << 62)
		for i := 0; i < 10; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ctx := &apps.Context{Stdin: bytes.NewReader(data), Stdout: io.Discard, Stderr: io.Discard}
			if err := prog.Run(ctx, argv[1:]); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		limit := uint64(1 << 10)
		if argv[0] == "tr" {
			limit += 4 << 10 // its bufio.Writer
		}
		if least >= limit {
			t.Errorf("%s allocates %d bytes over a 1 MiB stream, want under %d", argv[0], least, limit)
		}
	}
}

// Parallel tests run engines, and so tools, on several goroutines that all
// draw on the one block pool: each must keep printing what it prints
// alone. Under -race this also shows no block is used after its Put.
func TestPooledBlocksAcrossGoroutines(t *testing.T) {
	reg := Base()
	tools := [][]string{{"wc"}, {"cksum"}, {"grep", "-c", "the"}, {"gawk", "{ n += NF } END { print n }"}, {"tr", "a-z", "A-Z"}, {"sort"}}
	run := func(argv []string, data []byte) string {
		prog, _ := reg.Lookup(argv[0])
		var out bytes.Buffer
		ctx := &apps.Context{Stdin: bytes.NewReader(data), Stdout: &out, Stderr: io.Discard}
		if err := prog.Run(ctx, argv[1:]); err != nil && apps.ExitCode(err) != 1 {
			t.Error(err)
		}
		return out.String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		data := patternText(70000 + 30000*g)
		var alone []string
		for _, argv := range tools {
			alone = append(alone, run(argv, data))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for k, argv := range tools {
					if got := run(argv, data); got != alone[k] {
						t.Errorf("%q printed %d bytes beside other goroutines, %d alone", argv, len(got), len(alone[k]))
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPooledArraysAcrossGoroutines is the same question about gawk's array
// tables: four goroutines running different programs over different sizes
// each print what they print alone, and a table that held ten thousand keys
// comes back from the pool holding none. Run it under -race.
func TestPooledArraysAcrossGoroutines(t *testing.T) {
	progs := []string{
		`{ for (i = 1; i <= NF; i++) f[$i]++ } END { for (w in f) print w, f[w] }`,
		`{ len[length($0)]++; delete len[NR - 5] } END { for (l in len) print l, len[l] }`,
		`{ n = split($0, p); for (i in p) seen[p[i]] = NR; delete p } END { print length(seen); for (w in seen) if (seen[w] == NR) print w }`,
		`function add(arr, k) { arr[k] += NF } BEGIN { delete a; delete b } { add(a, NR % 7); add(b, $1) } END { for (k in a) print k, a[k]; print length(b) }`,
	}
	gawk, _ := Base().Lookup("gawk")
	run := func(prog string, data []byte) string {
		var out bytes.Buffer
		ctx := &apps.Context{Stdin: bytes.NewReader(data), Stdout: &out, Stderr: io.Discard}
		if err := gawk.Run(ctx, []string{prog}); err != nil {
			t.Error(err)
		}
		return out.String()
	}
	var wg sync.WaitGroup
	for g, prog := range progs {
		data := patternText(20000 + 30000*g)
		alone := run(prog, data)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := run(prog, data); got != alone {
					t.Errorf("%q printed %d bytes beside other goroutines, %d alone", prog, len(got), len(alone))
				}
			}
		}()
	}
	wg.Wait()
	if got := run(`BEGIN { for (i = 0; i < 10000; i++) big[i] = i; print length(big) }`, nil); got != "10000\n" {
		t.Fatalf("filling an array printed %q", got)
	}
	for i := 0; i < 4; i++ {
		if got := run(`BEGIN { n = 0; for (k in a) n++; print n, length(a), length(b), (5 in a), a[5] "." }`, nil); got != "0 0 0 0 .\n" {
			t.Fatalf("arrays after a 10,000-key run: %q", got)
		}
	}
}
