package appset

import (
	"bytes"
	"runtime"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/apps/gzipx"
	"compstor/internal/minfs"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

// flatDevice is a BlockDevice of 4 KiB pages over one preallocated array:
// its reads into a buffer, writes and trims allocate nothing, so what a run
// over it allocates is the program's and the filesystem's.
type flatDevice struct{ mem []byte }

func (d *flatDevice) PageSize() int { return 4096 }
func (d *flatDevice) Pages() int64  { return int64(len(d.mem)) / 4096 }

func (d *flatDevice) ReadPages(p *sim.Proc, lpn, count int64) ([]byte, error) {
	return bytes.Clone(d.mem[lpn*4096 : (lpn+count)*4096]), nil
}

func (d *flatDevice) ReadPagesInto(p *sim.Proc, lpn int64, dst []byte) error {
	copy(dst, d.mem[lpn*4096:])
	return nil
}

func (d *flatDevice) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	copy(d.mem[lpn*4096:], data)
	return nil
}

func (d *flatDevice) TrimPages(p *sim.Proc, lpn, count int64) error { return nil }

// onFlatFS runs body in a process over a fresh 4 MiB filesystem on a
// flatDevice, with no cost model.
func onFlatFS(body func(ctx *apps.Context)) {
	eng := sim.NewEngine()
	eng.Go("client", func(p *sim.Proc) {
		dev := &flatDevice{mem: make([]byte, 1024*4096)}
		body(&apps.Context{Proc: p, FS: minfs.NewView(minfs.NewFS(4096, 1024), dev)})
	})
	eng.Run()
}

// A buffer the memo kept as a key is never recycled: gzip keeps f's 28 KiB
// input at second sight, eight other contents of that size then go through
// gzip and the buffers it recycles, and gzip f still hits and writes the
// same output. Each other content is read back whole, into a recycled
// buffer the test holds on to, so a recycled key would end up holding
// other bytes and gzip f would read into a buffer of its own and miss.
func TestCodecKeptInputNotRecycled(t *testing.T) {
	var calls int
	gz, _ := gzipx.Programs(apps.NewCodecMemo())
	gzip := gz.Codec
	gzip.Transform = func(data []byte) ([]byte, error) { calls++; return gzipx.Compress(data) }
	book := textgen.Book(7, 28<<10)[:28<<10]
	want, err := gzipx.Compress(book)
	if err != nil {
		t.Fatal(err)
	}
	onFlatFS(func(ctx *apps.Context) {
		run := func(content []byte) bool {
			if err := ctx.FS.WriteFile(ctx.Proc, "f", content); err != nil {
				t.Error(err)
				return false
			}
			if err := gzip.Run(ctx, []string{"f"}); err != nil {
				t.Error(err)
				return false
			}
			return true
		}
		if !run(book) || !run(book) { // first sight, then second: the input is kept
			return
		}
		for i := range 8 {
			other := bytes.Clone(book)
			other[0] ^= byte(1 + i)
			if !run(other) {
				return
			}
			if got, err := ctx.FS.ReadFile(ctx.Proc, "f"); err != nil || !bytes.Equal(got, other) {
				t.Errorf("f read back: %d bytes, %v", len(got), err)
				return
			}
		}
		if !run(book) {
			return
		}
		if calls != 10 {
			t.Errorf("%d compressions, want 10: the last gzip f missed the memo", calls)
		}
		if got, err := ctx.FS.ReadFile(ctx.Proc, "f.gz"); err != nil || !bytes.Equal(got, want) {
			t.Errorf("f.gz after the hit: %d bytes, %v; want the %d bytes gzip computes", len(got), err, len(want))
		}
	})
}

// A memo hit of gzip over a 28 KiB file allocates less than a page: its input
// is read into a recycled buffer, and so is its output's tail page.
func TestCodecHitAllocatesUnderAPage(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	gzip, _ := gzipx.Programs(apps.NewCodecMemo())
	onFlatFS(func(ctx *apps.Context) {
		if err := ctx.FS.WriteFile(ctx.Proc, "f", textgen.Book(7, 28<<10)[:28<<10]); err != nil {
			t.Error(err)
			return
		}
		run := func() {
			if err := gzip.Run(ctx, []string{"f"}); err != nil {
				t.Error(err)
			}
		}
		for range 10 { // first and second sight, then hits that fill the pools
			run()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 100 {
			run()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 100; per >= 4096 {
			t.Errorf("a memo-hit gzip of a 28 KiB file allocates %d bytes, want under a page", per)
		}
	})
}
