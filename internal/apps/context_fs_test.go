package apps_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"compstor/internal/apps"
	"compstor/internal/apps/bzip2x"
	"compstor/internal/apps/gzipx"
	"compstor/internal/cpu"
	"compstor/internal/minfs"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

// memDevice is a BlockDevice for context tests. Only its trims take
// virtual time, and only trimWait of it.
type memDevice struct {
	pageSize int
	pages    int64
	store    map[int64][]byte
	trimWait time.Duration
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
	if d.trimWait > 0 {
		p.Wait(d.trimWait)
	}
	for i := int64(0); i < count; i++ {
		delete(d.store, lpn+i)
	}
	return nil
}

func withFSContext(t *testing.T, body func(p *sim.Proc, ctx *apps.Context, charged *int64)) {
	t.Helper()
	eng := sim.NewEngine()
	dev := &memDevice{pageSize: 512, pages: 4096, store: make(map[int64][]byte)}
	view := minfs.NewView(minfs.NewFS(512, 4096), dev)
	var charged int64
	eng.Go("t", func(p *sim.Proc) {
		ctx := &apps.Context{
			Proc:   p,
			FS:     view,
			Stdout: &bytes.Buffer{},
			Stderr: &bytes.Buffer{},
			Class:  cpu.ClassGrep,
			Charge: func(c cpu.Class, n int64) { charged += n },
		}
		body(p, ctx, &charged)
	})
	eng.Run()
}

func TestContextCreateOpenRoundTrip(t *testing.T) {
	withFSContext(t, func(p *sim.Proc, ctx *apps.Context, charged *int64) {
		w, err := ctx.Create("out.txt")
		if err != nil {
			t.Error(err)
			return
		}
		payload := bytes.Repeat([]byte("fs context "), 100)
		if _, err := w.Write(payload); err != nil {
			t.Error(err)
			return
		}
		if err := w.Close(); err != nil {
			t.Error(err)
			return
		}
		r, err := ctx.Open("out.txt")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close()
		got, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("round trip failed: %v", err)
		}
		// Writing through ctx.Create charges the streamed output bytes
		// (at the copy class) and reading through ctx.Open auto-charges
		// the input bytes: one payload each way.
		if *charged != 2*int64(len(payload)) {
			t.Errorf("charged %d bytes, want %d", *charged, 2*len(payload))
		}
	})
}

func TestContextCreateReplacesExisting(t *testing.T) {
	withFSContext(t, func(p *sim.Proc, ctx *apps.Context, _ *int64) {
		for round, content := range []string{"first version", "second"} {
			w, err := ctx.Create("f")
			if err != nil {
				t.Errorf("round %d: %v", round, err)
				return
			}
			w.Write([]byte(content))
			w.Close()
		}
		r, _ := ctx.Open("f")
		defer r.Close()
		got, _ := io.ReadAll(r)
		if string(got) != "second" {
			t.Errorf("got %q", got)
		}
	})
}

func TestContextOpenMissing(t *testing.T) {
	withFSContext(t, func(p *sim.Proc, ctx *apps.Context, _ *int64) {
		if _, err := ctx.Open("missing"); err == nil {
			t.Error("open of missing file succeeded")
		}
	})
}

// codecs are the four codec programs, bound to no memo.
func codecs() []apps.Codec {
	gzip, gunzip := gzipx.Programs(nil)
	bzip2, bunzip2 := bzip2x.Programs(nil)
	return []apps.Codec{gzip.Codec, gunzip.Codec, bzip2.Codec, bunzip2.Codec}
}

// stageCodec puts c's input for plain on a fresh filesystem over dev and
// returns the view, the input's name and content, and the output's name.
func stageCodec(t *testing.T, p *sim.Proc, dev *memDevice, c apps.Codec, plain []byte) (*minfs.View, string, []byte, string) {
	t.Helper()
	view := minfs.NewView(minfs.NewFS(dev.pageSize, dev.pages), dev)
	in, out, data := "f", "f"+c.Suffix, plain
	if c.Expand {
		compress := codecs()[0]
		if c.Suffix == ".bz2" {
			compress = codecs()[2]
		}
		var err error
		if data, err = compress.Transform(plain); err != nil {
			t.Fatal(err)
		}
		in, out = out, in
	}
	if err := view.WriteFile(p, in, data); err != nil {
		t.Fatal(err)
	}
	return view, in, data, out
}

func newDevice() *memDevice {
	return &memDevice{pageSize: 512, pages: 4096, store: make(map[int64][]byte)}
}

// A codec interrupted while it computes — by its cancel token or its
// deadline, during the compute charge — fails with the typed error and
// leaves the output it would have replaced as it was: the interrupt is seen
// before Create. (An expander's last charge is its top-up, after the read:
// there, the output used to be created, and left empty.)
func TestCodecInterruptedKeepsPreviousOutput(t *testing.T) {
	book := textgen.Book(7, 6<<10)
	for _, c := range codecs() {
		for _, mode := range []error{apps.ErrCanceled, apps.ErrDeadline} {
			eng := sim.NewEngine()
			eng.Go("t", func(p *sim.Proc) {
				view, in, data, out := stageCodec(t, p, newDevice(), c, book)
				if err := view.WriteFile(p, out, []byte("previous output")); err != nil {
					t.Fatal(err)
				}
				ctx := &apps.Context{Proc: p, FS: view, Class: c.CostClass, Cancel: &apps.CancelToken{}, Deadline: p.Now().Add(time.Millisecond)}
				size, charged := int64(len(data)), int64(0)
				ctx.Charge = func(cl cpu.Class, n int64) {
					// A compressor's compute is charged as it reads the last
					// of its input, an expander's as a top-up after that.
					if cl != c.CostClass || charged > size {
						return
					}
					if charged += n; charged < size || c.Expand && charged == size {
						return
					}
					charged = size + 1
					if mode == apps.ErrCanceled {
						ctx.Cancel.Cancel()
					} else {
						p.Wait(2 * time.Millisecond)
					}
				}
				err := c.Run(ctx, []string{in})
				if !errors.Is(err, mode) || apps.ExitCode(err) != 1 {
					t.Errorf("%s interrupted by %v: %v", c.ProgName, mode, err)
				}
				if got, err := view.ReadFile(p, out); err != nil || string(got) != "previous output" {
					t.Errorf("%s interrupted by %v: %s is now %q (%v)", c.ProgName, mode, out, got, err)
				}
			})
			eng.Run()
		}
	}
}

// A codec whose output runs out of space partway fails with ErrNoSpace and
// deletes what it wrote, as gzip(1) does: no truncated output is left, and
// the space it took is free again.
func TestCodecOutOfSpaceLeavesNoPartialOutput(t *testing.T) {
	noise := make([]byte, 48<<10)
	rand.New(rand.NewSource(3)).Read(noise)
	for _, c := range codecs() {
		plain := noise
		if c.Expand {
			plain = textgen.Book(11, 96<<10)
		}
		eng := sim.NewEngine()
		eng.Go("t", func(p *sim.Proc) {
			dev := newDevice()
			view, in, data, out := stageCodec(t, p, dev, c, plain)
			want, err := c.Transform(data)
			if err != nil {
				t.Fatal(err)
			}
			// Leave room for half the output.
			left := int64(len(want)/2) / 512
			filler := (dev.pages - 64 - int64(len(data)+511)/512 - left) * 512
			if err := view.WriteFile(p, "filler", make([]byte, filler)); err != nil {
				t.Fatal(err)
			}
			ctx := &apps.Context{Proc: p, FS: view, Class: c.CostClass}
			if err := c.Run(ctx, []string{in}); !errors.Is(err, minfs.ErrNoSpace) || apps.ExitCode(err) != 1 {
				t.Errorf("%s into %d free pages: %v", c.ProgName, left, err)
			}
			if _, err := view.FS().Stat(out); !errors.Is(err, minfs.ErrNotExist) {
				t.Errorf("%s left %s behind (%v)", c.ProgName, out, err)
			}
			if err := view.WriteFile(p, "probe", make([]byte, left*512)); err != nil {
				t.Errorf("after %s failed, %d pages are not free again: %v", c.ProgName, left, err)
			}
		})
		eng.Run()
	}
}

// Two `gzip f` over a stale f.gz, the second arriving at five gaps: into
// the first one's replace (whose trims take time), its write, its close,
// and after it. Both succeed, f.gz is f compressed, and no page leaks: once
// every file is deleted, one file fills the whole device. It used to fail
// with "file already exists".
func TestOverlappingGzipOverStaleOutput(t *testing.T) {
	book := textgen.Book(13, 28<<10)
	gz, err := gzipx.Compress(book)
	if err != nil {
		t.Fatal(err)
	}
	gzip := codecs()[0]
	for _, gap := range []time.Duration{0, 10 * time.Microsecond, 30 * time.Microsecond, 45 * time.Microsecond, 200 * time.Microsecond} {
		eng := sim.NewEngine()
		dev := newDevice()
		view := minfs.NewView(minfs.NewFS(512, 4096), dev)
		run := func(p *sim.Proc) {
			// Compute takes 1 ns a byte, so the read of f is 29 µs of charge
			// and the write of f.gz about 10 µs; a trim takes 20 µs.
			ctx := &apps.Context{Proc: p, FS: view, Class: gzip.CostClass, Charge: func(_ cpu.Class, n int64) { p.Wait(time.Duration(n)) }}
			if err := gzip.Run(ctx, []string{"f"}); err != nil {
				t.Errorf("gap %v: %v", gap, err)
			}
		}
		eng.Go("stage", func(p *sim.Proc) {
			if err := view.WriteFile(p, "f", book); err != nil {
				t.Fatal(err)
			}
			if err := view.WriteFile(p, "f.gz", bytes.Repeat([]byte("stale"), 5000)); err != nil {
				t.Fatal(err)
			}
			dev.trimWait = 20 * time.Microsecond
			eng.Go("first", run)
			p.Wait(gap)
			eng.Go("second", run)
		})
		eng.Run()
		eng.Go("check", func(p *sim.Proc) {
			if got, err := view.ReadFile(p, "f.gz"); err != nil || !bytes.Equal(got, gz) {
				t.Errorf("gap %v: f.gz is %d bytes (%v), want %d", gap, len(got), err, len(gz))
			}
			for _, name := range []string{"f", "f.gz"} { // emptied: every page they held is trimmed
				if err := view.WriteFile(p, name, nil); err != nil {
					t.Error(err)
				}
			}
			if err := view.WriteFile(p, "all", make([]byte, (dev.pages-64)*512)); err != nil {
				t.Errorf("gap %v: pages leaked: %v", gap, err)
			}
		})
		eng.Run()
	}
}
