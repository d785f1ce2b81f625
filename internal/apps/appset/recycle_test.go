package appset

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/apps/bzip2x"
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

// A codec's pooled output goes back to the pool only when the memo holds
// neither it nor its input: gzip f keeps its output at second sight; eight
// other contents of f's size then go through gzip, gunzip, bzip2 and
// bunzip2, whose outputs each run recycles, and are read back whole; gzip f
// hits with the bytes it computed; and after eight more contents it hits
// again. After the keep and each hit, every buffer the pools hand out is
// overwritten whole. A kept or hit output handed out again would hold other
// bytes by then.
func TestCodecHeldOutputNotRecycled(t *testing.T) {
	// One P: a sync.Pool keeps what was last put back private to the P that
	// put it, where a Get on another P would not look.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	memo := apps.NewCodecMemo()
	gz, gunzip := gzipx.Programs(memo)
	bzip2, bunzip2 := bzip2x.Programs(memo)
	var calls int
	gzip := gz.Codec
	compute := gzip.Transform
	gzip.Transform = func(data []byte) ([]byte, error) { calls++; return compute(data) }
	book := textgen.Book(7, 28<<10)[:28<<10]
	want, err := gzipx.Compress(book)
	if err != nil {
		t.Fatal(err)
	}
	onFlatFS(func(ctx *apps.Context) {
		var held [][]byte // what the test read back: pooled buffers it keeps
		read := func(name string) []byte {
			b, err := ctx.FS.ReadFile(ctx.Proc, name)
			if err != nil {
				t.Error(err)
			}
			held = append(held, b)
			return b
		}
		scribble := func() {
			for k := range 20 { // up to 512 KiB
				for range 4 {
					b := minfs.GetBuf(1 << k)
					b = b[:cap(b)]
					for i := range b {
						b[i] = 0xA5
					}
					held = append(held, b)
				}
			}
		}
		run := func(content []byte, steps ...func(*apps.Context, []string) error) bool {
			if err := ctx.FS.WriteFile(ctx.Proc, "f", content); err != nil {
				t.Error(err)
				return false
			}
			for i, arg := range []string{"f", "f.gz", "f", "f.bz2"}[:len(steps)] {
				if err := steps[i](ctx, []string{arg}); err != nil {
					t.Error(err)
					return false
				}
			}
			return true
		}
		others := func(round int) bool {
			for i := range 8 {
				other := bytes.Clone(book)
				other[0] ^= byte(1 + i)
				other[len(other)/2] ^= byte(1 + round)
				if !run(other, gzip.Run, gunzip.Run, bzip2.Run, bunzip2.Run) {
					return false
				}
				gz, bz := read("f.gz"), read("f.bz2")
				unz, err1 := gzipx.Decompress(gz)
				unbz, err2 := bzip2x.Decompress(bz)
				if f := read("f"); !bytes.Equal(f, other) || !bytes.Equal(unz, other) || !bytes.Equal(unbz, other) {
					t.Errorf("content %d of round %d read back wrong: f %v, f.gz %v (%v), f.bz2 %v (%v)",
						i, round, bytes.Equal(f, other), bytes.Equal(unz, other), err1, bytes.Equal(unbz, other), err2)
					return false
				}
			}
			return true
		}
		hit := func() bool {
			before := calls
			if !run(book, gzip.Run) {
				return false
			}
			if calls != before {
				t.Errorf("gzip f computed again: its kept output was lost")
			}
			if got := read("f.gz"); !bytes.Equal(got, want) {
				t.Errorf("f.gz after a hit: %d bytes, want the %d bytes gzip computes", len(got), len(want))
				return false
			}
			scribble()
			return true
		}
		if !run(book, gzip.Run) || !run(book, gzip.Run) { // first sight, then second: the output is kept
			return
		}
		scribble()
		_ = others(0) && hit() && others(1) && hit() && hit()
	})
}

// Warmed runs of the four codecs over distinct 28 KiB contents each allocate
// less than the output they write: the output comes from minfs's pool and
// goes back to it, and each kernel's scratch stays in its pooled state.
func TestCodecMissAllocatesUnderItsOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	// One P: a sync.Pool keeps what was last put back private to the P that
	// put it, and a run resumed on another P would miss it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reg := Base()
	cmds := []struct{ prog, arg, out string }{{"gzip", "f", "f.gz"}, {"gunzip", "f.gz", "f"}, {"bzip2", "f", "f.bz2"}, {"bunzip2", "f.bz2", "f"}}
	book := textgen.Book(7, 28<<10)[:28<<10]
	onFlatFS(func(ctx *apps.Context) {
		var alloc, written [4]uint64
		for i := range 60 { // 20 to fill the pools, 40 measured
			content := bytes.Clone(book)
			binary.LittleEndian.PutUint32(content, uint32(i))
			if err := ctx.FS.WriteFile(ctx.Proc, "f", content); err != nil {
				t.Fatal(err)
			}
			for j, c := range cmds {
				prog, _ := reg.Lookup(c.prog)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := prog.Run(ctx, []string{c.arg})
				runtime.ReadMemStats(&after)
				st, serr := ctx.FS.FS().Stat(c.out)
				if err != nil || serr != nil {
					t.Fatalf("%s %s: %v, %v", c.prog, c.arg, err, serr)
				}
				if i >= 20 {
					alloc[j] += after.TotalAlloc - before.TotalAlloc
					written[j] += uint64(st.Size)
				}
			}
		}
		for j, c := range cmds {
			if alloc[j] >= written[j] {
				t.Errorf("%s allocates %d bytes a run, its output is %d", c.prog, alloc[j]/40, written[j]/40)
			}
		}
	})
}

// FuzzCodecRecycle runs arbitrary contents through gzip → gunzip and bzip2 →
// bunzip2 with Codec.Run, over pools warmed by the inputs before: a content,
// its two halves and the content again, so that outputs of several sizes
// pass through the pools and the repeat is a second sight or a hit. Each
// must round-trip, and compress to the bytes the bare kernels produce.
func FuzzCodecRecycle(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("hello, hello, hello\n"))
	f.Add(textgen.Book(7, 28<<10)[:28<<10])
	f.Add(make([]byte, 70_000))
	reg := Base()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256<<10 {
			return
		}
		onFlatFS(func(ctx *apps.Context) {
			for _, content := range [][]byte{data, data[:len(data)/2], data[len(data)/2:], data} {
				if err := ctx.FS.WriteFile(ctx.Proc, "f", content); err != nil {
					t.Fatal(err)
				}
				wantGz, _ := gzipx.Compress(content)
				wantBz := bzip2x.Compress(content, bzip2x.Options{})
				for _, c := range []struct {
					prog, arg, out string
					want           []byte
				}{{"gzip", "f", "f.gz", wantGz}, {"gunzip", "f.gz", "f", content}, {"bzip2", "f", "f.bz2", wantBz}, {"bunzip2", "f.bz2", "f", content}} {
					prog, _ := reg.Lookup(c.prog)
					if err := prog.Run(ctx, []string{c.arg}); err != nil {
						t.Fatalf("%s over %d bytes: %v", c.prog, len(content), err)
					}
					if got, err := ctx.FS.ReadFile(ctx.Proc, c.out); err != nil || !bytes.Equal(got, c.want) {
						t.Fatalf("%s over %d bytes: %s holds %d bytes (%v), want %d", c.prog, len(content), c.out, len(got), err, len(c.want))
					}
				}
			}
		})
	})
}

// What the memo keeps at second sight is an output at its own size: the
// memo books a kept output at its capacity, and a pool class's would fill it
// sooner than the output needs.
func TestCodecKeptOutputAtItsSize(t *testing.T) {
	memo := apps.NewCodecMemo()
	gzip, gunzip := gzipx.Programs(memo)
	bzip2, bunzip2 := bzip2x.Programs(memo)
	book := textgen.Book(7, 28<<10)[:28<<10]
	gz, _ := gzipx.Compress(book)
	bz := bzip2x.Compress(book, bzip2x.Options{})
	onFlatFS(func(ctx *apps.Context) {
		for _, c := range []struct {
			prog    apps.Program
			file    string
			in, out []byte
		}{{gzip, "f", book, gz}, {gunzip, "f.gz", gz, book}, {bzip2, "f", book, bz}, {bunzip2, "f.bz2", bz, book}} {
			for range 2 { // first sight, then second: the output is kept
				if err := ctx.FS.WriteFile(ctx.Proc, c.file, c.in); err != nil {
					t.Fatal(err)
				}
				if err := c.prog.Run(ctx, []string{c.file}); err != nil {
					t.Fatal(err)
				}
			}
			kept, _ := memo.Recall(c.prog.Name(), c.in)
			if out, _ := kept.([]byte); !bytes.Equal(out, c.out) || cap(out) != len(out) {
				t.Errorf("%s keeps %d bytes of capacity %d, want the %d-byte output at its size", c.prog.Name(), len(out), cap(out), len(c.out))
			}
		}
	})
}
