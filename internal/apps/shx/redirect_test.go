package shx_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/apps/appset"
	"compstor/internal/apps/shx"
	"compstor/internal/minfs"
	"compstor/internal/sim"
)

// memDevice is a zero-cost block device for shell+FS tests.
type memDevice struct {
	pageSize int
	pages    int64
	store    map[int64][]byte
}

func (d *memDevice) PageSize() int { return d.pageSize }
func (d *memDevice) Pages() int64  { return d.pages }
func (d *memDevice) ReadPages(p *sim.Proc, lpn, count int64) ([]byte, error) {
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
func (d *memDevice) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	for i := 0; i*d.pageSize < len(data); i++ {
		pg := make([]byte, d.pageSize)
		copy(pg, data[i*d.pageSize:])
		d.store[lpn+int64(i)] = pg
	}
	return nil
}
func (d *memDevice) TrimPages(p *sim.Proc, lpn, count int64) error {
	for i := int64(0); i < count; i++ {
		delete(d.store, lpn+i)
	}
	return nil
}

// runShellFS executes a script against a live filesystem view.
func runShellFS(t *testing.T, setup map[string]string, script string) (string, int, *minfs.View) {
	t.Helper()
	return runShellWith(t, appset.Base(), setup, script)
}

func runShellWith(t *testing.T, reg *apps.Registry, setup map[string]string, script string) (string, int, *minfs.View) {
	t.Helper()
	eng := sim.NewEngine()
	dev := &memDevice{pageSize: 512, pages: 1 << 14, store: make(map[int64][]byte)}
	view := minfs.NewView(minfs.NewFS(512, 1<<14), dev)
	var out bytes.Buffer
	var code int
	eng.Go("sh", func(p *sim.Proc) {
		for name, content := range setup {
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
			Lookup: reg.Lookup,
		}
		code = apps.ExitCode(shx.Shell{}.Run(ctx, []string{"-c", script}))
	})
	eng.Run()
	return out.String(), code, view
}

func TestInputRedirection(t *testing.T) {
	out, code, _ := runShellFS(t, map[string]string{"in.txt": "a\nb\nc\n"}, `wc -l < in.txt`)
	if code != 0 || strings.TrimSpace(out) != "3" {
		t.Fatalf("out=%q code=%d", out, code)
	}
}

func TestOutputRedirection(t *testing.T) {
	_, code, view := runShellFS(t, nil, `echo persisted > out.txt`)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	eng := sim.NewEngine()
	var got []byte
	eng.Go("check", func(p *sim.Proc) {
		data, err := view.ReadFile(p, "out.txt")
		if err != nil {
			t.Error(err)
			return
		}
		got = data
	})
	eng.Run()
	if string(got) != "persisted\n" {
		t.Fatalf("file contents %q", got)
	}
}

func TestRedirectionInPipeline(t *testing.T) {
	out, code, view := runShellFS(t,
		map[string]string{"words.txt": "b\na\nc\na\n"},
		`sort < words.txt | uniq -c > counts.txt ; cat counts.txt`)
	if code != 0 {
		t.Fatalf("exit %d (out %q)", code, out)
	}
	if !strings.Contains(out, "2 a") {
		t.Fatalf("out = %q", out)
	}
	_ = view
}

func TestTrInShellPipeline(t *testing.T) {
	out, code, _ := runShellFS(t, map[string]string{"f": "Hello World\n"},
		`cat f | tr a-z A-Z`)
	if code != 0 || out != "HELLO WORLD\n" {
		t.Fatalf("out=%q code=%d", out, code)
	}
}

// The tools read through pooled blocks that come back holding the last
// task's bytes (and minfs reads whole pages into them, past what it
// reports): a short file scanned after a long one must count, checksum and
// print only its own.
func TestPooledBlockDoesNotLeakBetweenFiles(t *testing.T) {
	long := strings.Repeat("seven words of text on every line\n", 4000) // over two blocks
	short := "ab cd\n"
	out, code, _ := runShellFS(t, map[string]string{"long": long, "short": short},
		`wc long ; cksum long ; grep -c text long ; sort long | uniq | gawk '{ print NF }' ; `+
			`wc short ; cksum short ; grep -c b short ; tail -n 3 short | gawk '{ print NF }' ; tr a-z A-Z < short`)
	want := fmt.Sprintf("%7d %7d %7d long\n%08x %d long\n4000\n7\n%7d %7d %7d short\n%08x %d short\n1\n2\nAB CD\n",
		4000, 28000, len(long), crc32.ChecksumIEEE([]byte(long)), len(long),
		1, 2, len(short), crc32.ChecksumIEEE([]byte(short)), len(short))
	if code != 0 || out != want {
		t.Fatalf("exit %d\n got %q\nwant %q", code, out, want)
	}
}

func TestCompressionPipelineOverFS(t *testing.T) {
	// The paper's flagship flexibility demo: compress, decompress, and
	// verify entirely inside the shell environment.
	out, code, _ := runShellFS(t, map[string]string{"doc.txt": strings.Repeat("squeeze me ", 500)},
		`gzip doc.txt ; gunzip doc.txt.gz ; cksum doc.txt`)
	if code != 0 {
		t.Fatalf("exit %d (out %q)", code, out)
	}
	if !strings.Contains(out, "5500") { // byte count survives the round trip
		t.Fatalf("out = %q", out)
	}
}

func TestMissingInputRedirectFails(t *testing.T) {
	_, code, _ := runShellFS(t, nil, `wc -l < ghost.txt`)
	if code == 0 {
		t.Fatal("missing input redirect succeeded")
	}
}
