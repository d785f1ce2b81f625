package isps

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/apps/appset"
	"compstor/internal/apps/awkx"
	"compstor/internal/apps/grepx"
	"compstor/internal/apps/splitscan"
	"compstor/internal/minfs"
	"compstor/internal/sim"
)

// newParRig is newRig with the executor chosen: scanChunks 0 is the stock
// split scan, 1 the paper's one-core-per-task executor.
func newParRig(t testing.TB, scanChunks int, reg *apps.Registry) (*sim.Engine, *Subsystem, *minfs.View) {
	t.Helper()
	if reg == nil {
		reg = appset.Base().Clone()
	}
	eng := sim.NewEngine()
	sub := New(eng, Config{Registry: reg, ScanChunks: scanChunks})
	dev := &memDevice{pageSize: 512, pages: 1 << 16, store: make(map[int64][]byte)}
	view := minfs.NewView(minfs.NewFS(512, 1<<16), dev)
	sub.AttachFS(view)
	return eng, sub, view
}

// parScanPayload is n lines of text, about 47 bytes each.
func parScanPayload(n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "line %d has some words and sometimes a needle%d\n", i, i%7)
	}
	return b.Bytes()
}

// runOnRig stages payload and runs one task, returning the result.
func runOnRig(t testing.TB, eng *sim.Engine, sub *Subsystem, view *minfs.View, payload []byte, spec TaskSpec) TaskResult {
	t.Helper()
	var res TaskResult
	eng.Go("client", func(p *sim.Proc) {
		if err := view.WriteFile(p, "scan.txt", payload); err != nil {
			t.Error(err)
			return
		}
		res = sub.Spawn(p, spec)
	})
	eng.Run()
	eng.Shutdown()
	return res
}

// TestParScanMatchesSerial is the core byte-identity check: every chunkable
// kernel must produce exactly the serial output (and exit code) when the
// stock device splits it across the cores.
func TestParScanMatchesSerial(t *testing.T) {
	payload := parScanPayload(24000) // > 1 MiB: four chunks
	specs := []TaskSpec{
		{Exec: "grep", Args: []string{"needle3", "scan.txt"}},
		{Exec: "grep", Args: []string{"-c", "needle3", "scan.txt"}},
		{Exec: "grep", Args: []string{"-v", "needle3", "scan.txt"}},
		{Exec: "grep", Args: []string{"-c", "no such string", "scan.txt"}},
		{Exec: "wc", Args: []string{"scan.txt"}},
		{Exec: "wc", Args: []string{"-l", "scan.txt"}},
		{Exec: "cksum", Args: []string{"scan.txt"}},
		{Exec: "cat", Args: []string{"scan.txt"}},
		{Exec: "gawk", Args: []string{"{print $2}", "scan.txt"}},
	}
	for _, spec := range specs {
		t.Run(fmt.Sprintf("%s_%v", spec.Exec, spec.Args[0]), func(t *testing.T) {
			seng, ssub, sview := newParRig(t, 1, nil)
			serial := runOnRig(t, seng, ssub, sview, payload, spec)

			peng, psub, pview := newParRig(t, 0, nil)
			split := runOnRig(t, peng, psub, pview, payload, spec)

			if split.ExitCode != serial.ExitCode {
				t.Fatalf("exit code: split %d, serial %d (split err %v)", split.ExitCode, serial.ExitCode, split.Err)
			}
			if !bytes.Equal(split.Stdout, serial.Stdout) {
				t.Fatalf("stdout differs:\nsplit  %q\nserial %q", clip(split.Stdout), clip(serial.Stdout))
			}
			if st := psub.ParScanStats(); st.Tasks != 1 || st.Chunks != 4 {
				t.Fatalf("split stats = %+v, want 1 task / 4 chunks", st)
			}
			if st := ssub.ParScanStats(); st != (ParScanStats{}) {
				t.Fatalf("ScanChunks 1 planned: %+v", st)
			}
			if split.Elapsed() >= serial.Elapsed() {
				t.Errorf("split (%v) not faster than serial (%v)", split.Elapsed(), serial.Elapsed())
			}
		})
	}
}

func clip(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}

// TestParScanGawkDenyList: a gawk program the split deny-list admits runs
// chunked, one it refuses (here a gsub that rewrites a variable, state that
// outlives the record) runs serially, and both print exactly what the
// one-core executor prints.
func TestParScanGawkDenyList(t *testing.T) {
	payload := parScanPayload(24000)
	for _, c := range []struct {
		args  []string
		split bool
	}{
		{[]string{`$NF ~ /needle3/ { sub(/line/, "L", $1); print $1, $2 }`, "scan.txt"}, true},
		{[]string{"-v", "acc=aaa", `{ print gsub(/a/, "", acc), $2 }`, "scan.txt"}, false},
	} {
		spec := TaskSpec{Exec: "gawk", Args: c.args}
		seng, ssub, sview := newParRig(t, 1, nil)
		serial := runOnRig(t, seng, ssub, sview, payload, spec)
		peng, psub, pview := newParRig(t, 0, nil)
		split := runOnRig(t, peng, psub, pview, payload, spec)
		if serial.Err != nil || split.Err != nil || !bytes.Equal(split.Stdout, serial.Stdout) {
			t.Errorf("%v: split printed %q (%v), serial %q (%v)", c.args, clip(split.Stdout), split.Err, clip(serial.Stdout), serial.Err)
		}
		if st := psub.ParScanStats(); (st.Tasks == 1) != c.split || (st.Fallbacks == 1) == c.split {
			t.Errorf("%v: stats %+v, want split %v", c.args, st, c.split)
		}
	}
}

// TestParScanOversubscriptionQueues: more chunks than cores must queue FIFO
// on the cores Resource and still succeed with identical output.
func TestParScanOversubscriptionQueues(t *testing.T) {
	payload := parScanPayload(90000) // > 4 MiB: sixteen chunk floors
	seng, ssub, sview := newParRig(t, 1, nil)
	serial := runOnRig(t, seng, ssub, sview, payload, TaskSpec{Exec: "wc", Args: []string{"scan.txt"}})

	peng, psub, pview := newParRig(t, 16, nil)
	split := runOnRig(t, peng, psub, pview, payload, TaskSpec{Exec: "wc", Args: []string{"scan.txt"}})

	if split.Err != nil {
		t.Fatalf("oversubscribed split failed: %v", split.Err)
	}
	if !bytes.Equal(split.Stdout, serial.Stdout) {
		t.Fatalf("stdout differs:\nsplit  %q\nserial %q", split.Stdout, serial.Stdout)
	}
	if st := psub.ParScanStats(); st.Tasks != 1 || st.Chunks != 16 {
		t.Fatalf("stats = %+v, want 1 task / 16 chunks", st)
	}
}

// TestParScanFallbacks: a large input whose program or argv form cannot
// split runs serially (counted), producing the usual results.
func TestParScanFallbacks(t *testing.T) {
	payload := bytes.Repeat([]byte("b\na\nc\n"), 100000) // two chunk floors
	eng, sub, view := newParRig(t, 0, nil)
	var sortRes, numberedRes TaskResult
	eng.Go("client", func(p *sim.Proc) {
		if err := view.WriteFile(p, "scan.txt", payload); err != nil {
			t.Error(err)
			return
		}
		sortRes = sub.Spawn(p, TaskSpec{Exec: "sort", Args: []string{"-u", "scan.txt"}})
		numberedRes = sub.Spawn(p, TaskSpec{Exec: "grep", Args: []string{"-c", "-n", "a", "scan.txt"}})
	})
	eng.Run()
	if sortRes.Err != nil || string(sortRes.Stdout) != "a\nb\nc\n" {
		t.Fatalf("sort fallback: %v %q", sortRes.Err, sortRes.Stdout)
	}
	if numberedRes.Err != nil || string(numberedRes.Stdout) != "100000\n" {
		t.Fatalf("grep -n fallback: %v %q", numberedRes.Err, numberedRes.Stdout)
	}
	st := sub.ParScanStats()
	if st.Tasks != 0 || st.Fallbacks != 2 {
		t.Fatalf("stats = %+v, want 0 tasks / 2 fallbacks", st)
	}
}

// TestParScanTinyFileStaysSerial: a file under two chunk floors is not even
// planned, so it is no fallback either.
func TestParScanTinyFileStaysSerial(t *testing.T) {
	eng, sub, view := newParRig(t, 0, nil)
	res := runOnRig(t, eng, sub, view, []byte("tiny\nfile\n"), TaskSpec{Exec: "wc", Args: []string{"-l", "scan.txt"}})
	if res.Err != nil || string(res.Stdout) != "2 scan.txt\n" {
		t.Fatalf("tiny file: %v %q", res.Err, res.Stdout)
	}
	if st := sub.ParScanStats(); st != (ParScanStats{}) {
		t.Fatalf("stats = %+v, want none", st)
	}
}

// countingGrep is grep with its SplitPlan calls counted.
type countingGrep struct {
	grepx.Grep
	plans *int
}

func (g countingGrep) SplitPlan(args []string) (splitscan.Plan, bool) {
	*g.plans++
	return g.Grep.SplitPlan(args)
}

// TestSmallInputsAreNotPlanned: a task whose input is under two chunk floors
// (the 28 KiB file every serving request reads) never reaches SplitPlan —
// no pattern compile, no program parse — and counts no fallback.
func TestSmallInputsAreNotPlanned(t *testing.T) {
	plans := 0
	reg := appset.Base().Clone()
	reg.Register(countingGrep{plans: &plans})
	eng, sub, view := newParRig(t, 0, reg)
	res := runOnRig(t, eng, sub, view, parScanPayload(700)[:28<<10], TaskSpec{Exec: "grep", Args: []string{"-c", "needle3", "scan.txt"}})
	if res.Err != nil {
		t.Fatalf("grep: %v", res.Err)
	}
	if plans != 0 {
		t.Fatalf("%d SplitPlan calls for a 28 KiB input", plans)
	}
	if st := sub.ParScanStats(); st != (ParScanStats{}) {
		t.Fatalf("stats = %+v, want none", st)
	}
}

// FuzzSplitEqualsSerial is the property split scan rests on: whatever the
// text and the chunk count, a scan split across the cores exits as the
// paper's one-core executor does and, when it succeeds, prints the same
// bytes (a failed run's partial output is not part of the contract: a split
// one prints nothing). The text is tiled to n chunk floors, so n chunks
// really run; programs are grep and wc with fuzzed flags, cksum, cat, and
// any fuzzed gawk program the splitter admits.
func FuzzSplitEqualsSerial(f *testing.F) {
	text := parScanPayload(40)
	// The five scaleup commands, then a program that must never split.
	f.Add(text, uint8(2), uint8(0), uint8(1), "the")
	f.Add(text, uint8(2), uint8(1), uint8(0), "")
	f.Add(text, uint8(2), uint8(2), uint8(0), "")
	f.Add(text, uint8(2), uint8(4), uint8(0), "{print $1}")
	f.Add(text, uint8(2), uint8(3), uint8(0), "")
	f.Add(text, uint8(2), uint8(4), uint8(0), "{n++} END{print n}")
	f.Add([]byte("0123456789abcde\n"), uint8(2), uint8(1), uint8(0), "") // a line ends at every cut
	f.Add([]byte("one long line without a newline "), uint8(5), uint8(1), uint8(7), "")
	f.Add([]byte("\n\nx\n"), uint8(14), uint8(0), uint8(14), "x")

	f.Fuzz(func(t *testing.T, text []byte, chunks, tool, flags uint8, arg string) {
		n := 2 + int(chunks)%15
		var argv []string
		switch tool % 5 {
		case 0:
			argv = []string{"grep"}
			for i, flag := range []string{"-c", "-v", "-i", "-l"} {
				if flags&(1<<i) != 0 {
					argv = append(argv, flag)
				}
			}
			argv = append(argv, arg)
		case 1:
			argv = []string{"wc"}
			for i, flag := range []string{"-l", "-w", "-c"} {
				if flags&(1<<i) != 0 {
					argv = append(argv, flag)
				}
			}
		case 2:
			argv = []string{"cksum"}
		case 3:
			argv = []string{"cat"}
		case 4:
			// A loop can spin to the interpreter's step limit on every chunk:
			// correct, and far too slow to fuzz.
			if strings.Contains(arg, "while") || strings.Contains(arg, "for") || strings.Contains(arg, "do") {
				t.Skip("loops")
			}
			if _, ok := (awkx.Gawk{}).SplitPlan([]string{arg, "scan.txt"}); !ok {
				t.Skip("not splittable")
			}
			argv = []string{"gawk", arg}
		}
		if len(text) == 0 {
			text = []byte{'\n'}
		}
		size := n*minChunkBytes + len(text)%4096
		data := bytes.Repeat(text, size/len(text)+1)[:size]
		spec := TaskSpec{Exec: argv[0], Args: append(argv[1:], "scan.txt")}

		seng, ssub, sview := newParRig(t, 1, nil)
		serial := runOnRig(t, seng, ssub, sview, data, spec)
		peng, psub, pview := newParRig(t, n, nil)
		split := runOnRig(t, peng, psub, pview, data, spec)

		if split.ExitCode != serial.ExitCode {
			t.Fatalf("%q, %d chunks: exit %d split, %d serial (%v / %v)", spec.Args, n, split.ExitCode, serial.ExitCode, split.Err, serial.Err)
		}
		if serial.ExitCode <= 1 && !bytes.Equal(split.Stdout, serial.Stdout) {
			t.Fatalf("%q, %d chunks: stdout differs:\nsplit  %q\nserial %q", spec.Args, n, clip(split.Stdout), clip(serial.Stdout))
		}
		if st := ssub.ParScanStats(); st != (ParScanStats{}) {
			t.Fatalf("ScanChunks 1 planned: %+v", st)
		}
	})
}
