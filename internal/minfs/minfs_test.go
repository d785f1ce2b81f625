package minfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"compstor/internal/sim"
)

// memDevice is an in-memory BlockDevice for filesystem tests.
type memDevice struct {
	pageSize int
	pages    int64
	store    map[int64][]byte
	writes   int64
	reads    int64
	trims    int64
}

func newMemDevice(pageSize int, pages int64) *memDevice {
	return &memDevice{pageSize: pageSize, pages: pages, store: make(map[int64][]byte)}
}

func (d *memDevice) PageSize() int { return d.pageSize }
func (d *memDevice) Pages() int64  { return d.pages }

func (d *memDevice) ReadPages(p *sim.Proc, lpn, count int64) ([]byte, error) {
	if lpn < 0 || lpn+count > d.pages {
		return nil, fmt.Errorf("memdev: range %d+%d out of range", lpn, count)
	}
	out := make([]byte, 0, count*int64(d.pageSize))
	for i := int64(0); i < count; i++ {
		d.reads++
		if pg, ok := d.store[lpn+i]; ok {
			out = append(out, pg...)
		} else {
			out = append(out, make([]byte, d.pageSize)...)
		}
	}
	return out, nil
}

func (d *memDevice) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	if len(data)%d.pageSize != 0 {
		return fmt.Errorf("memdev: bad write size %d", len(data))
	}
	count := int64(len(data) / d.pageSize)
	if lpn < 0 || lpn+count > d.pages {
		return fmt.Errorf("memdev: range %d+%d out of range", lpn, count)
	}
	for i := int64(0); i < count; i++ {
		d.writes++
		pg := make([]byte, d.pageSize)
		copy(pg, data[int(i)*d.pageSize:])
		d.store[lpn+i] = pg
	}
	return nil
}

func (d *memDevice) TrimPages(p *sim.Proc, lpn, count int64) error {
	for i := int64(0); i < count; i++ {
		delete(d.store, lpn+i)
	}
	d.trims += count
	return nil
}

func newTestView() (*sim.Engine, *View, *memDevice) {
	eng := sim.NewEngine()
	dev := newMemDevice(512, 4096)
	fs := NewFS(512, 4096)
	return eng, NewView(fs, dev), dev
}

func inProc(t *testing.T, eng *sim.Engine, body func(p *sim.Proc) error) {
	t.Helper()
	var err error
	eng.Go("test", func(p *sim.Proc) { err = body(p) })
	eng.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadFileRoundTrip(t *testing.T) {
	eng, v, _ := newTestView()
	data := bytes.Repeat([]byte("hello, in-situ world! "), 100) // 2200 bytes, unaligned
	inProc(t, eng, func(p *sim.Proc) error {
		if err := v.WriteFile(p, "a.txt", data); err != nil {
			return err
		}
		got, err := v.ReadFile(p, "a.txt")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return errors.New("content mismatch")
		}
		return nil
	})
}

func TestStreamingWriteAndRead(t *testing.T) {
	eng, v, _ := newTestView()
	inProc(t, eng, func(p *sim.Proc) error {
		f, err := v.CreateTrunc(p, "stream")
		if err != nil {
			return err
		}
		var want bytes.Buffer
		for i := 0; i < 50; i++ {
			chunk := bytes.Repeat([]byte{byte(i)}, 37) // deliberately unaligned
			want.Write(chunk)
			if _, err := f.Write(p, chunk); err != nil {
				return err
			}
		}
		if err := f.Close(p); err != nil {
			return err
		}
		r, err := v.Open(p, "stream")
		if err != nil {
			return err
		}
		var got bytes.Buffer
		buf := make([]byte, 113)
		for {
			n, err := r.Read(p, buf)
			got.Write(buf[:n])
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return errors.New("streamed content mismatch")
		}
		return r.Close(p)
	})
}

func TestSeek(t *testing.T) {
	eng, v, _ := newTestView()
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	inProc(t, eng, func(p *sim.Proc) error {
		if err := v.WriteFile(p, "f", data); err != nil {
			return err
		}
		f, err := v.Open(p, "f")
		if err != nil {
			return err
		}
		if err := f.SeekTo(1234); err != nil {
			return err
		}
		buf := make([]byte, 100)
		n, err := f.Read(p, buf)
		if err != nil {
			return err
		}
		if !bytes.Equal(buf[:n], data[1234:1234+n]) {
			return errors.New("seek+read mismatch")
		}
		// POSIX lseek semantics: seeking past EOF succeeds and subsequent
		// reads return io.EOF; only negative offsets are rejected.
		if err := f.SeekTo(99999); err != nil {
			return fmt.Errorf("past-EOF seek rejected: %w", err)
		}
		if _, err := f.Read(p, buf); err != io.EOF {
			return fmt.Errorf("read past EOF: got %v, want io.EOF", err)
		}
		if err := f.SeekTo(-1); err == nil {
			return errors.New("negative seek accepted")
		}
		return nil
	})
}

func TestOpenMissingFails(t *testing.T) {
	eng, v, _ := newTestView()
	inProc(t, eng, func(p *sim.Proc) error {
		if _, err := v.Open(p, "ghost"); !errors.Is(err, ErrNotExist) {
			return fmt.Errorf("open ghost: %v", err)
		}
		if _, err := v.ReadFile(p, "ghost"); !errors.Is(err, ErrNotExist) {
			return fmt.Errorf("readfile ghost: %v", err)
		}
		if err := v.Delete(p, "ghost"); !errors.Is(err, ErrNotExist) {
			return fmt.Errorf("delete ghost: %v", err)
		}
		return nil
	})
}

func TestDeleteFreesAndTrims(t *testing.T) {
	eng, v, dev := newTestView()
	inProc(t, eng, func(p *sim.Proc) error {
		if err := v.WriteFile(p, "big", make([]byte, 10*512)); err != nil {
			return err
		}
		if err := v.Delete(p, "big"); err != nil {
			return err
		}
		if _, err := v.FS().Stat("big"); !errors.Is(err, ErrNotExist) {
			return errors.New("file still visible after delete")
		}
		return nil
	})
	if dev.trims < 10 {
		t.Fatalf("trimmed %d pages, want >= 10", dev.trims)
	}
}

func TestSpaceReuseAfterDelete(t *testing.T) {
	eng, v, _ := newTestView()
	// Device data area: 4096-64 pages of 512B each ~ 2 MB. Write/delete a
	// 1 MB file many times; without space reuse this would exhaust space.
	inProc(t, eng, func(p *sim.Proc) error {
		payload := make([]byte, 1<<20)
		for i := 0; i < 8; i++ {
			name := "cycle"
			if err := v.WriteFile(p, name, payload); err != nil {
				return fmt.Errorf("cycle %d: %w", i, err)
			}
			if err := v.Delete(p, name); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestNoSpace(t *testing.T) {
	eng, v, _ := newTestView()
	inProc(t, eng, func(p *sim.Proc) error {
		err := v.WriteFile(p, "huge", make([]byte, 5000*512))
		if !errors.Is(err, ErrNoSpace) {
			return fmt.Errorf("overfull write: %v", err)
		}
		return nil
	})
}

func TestListAndStat(t *testing.T) {
	eng, v, _ := newTestView()
	inProc(t, eng, func(p *sim.Proc) error {
		v.WriteFile(p, "b", make([]byte, 100))
		v.WriteFile(p, "a", make([]byte, 200))
		ls := listFiles(v.FS())
		if len(ls) != 2 || ls[0].Name != "a" || ls[1].Name != "b" {
			return fmt.Errorf("list = %+v", ls)
		}
		st, err := v.FS().Stat("a")
		if err != nil || st.Size != 200 {
			return fmt.Errorf("stat: %+v %v", st, err)
		}
		if usedBytes(v.FS()) != 300 {
			return fmt.Errorf("used = %d", usedBytes(v.FS()))
		}
		return nil
	})
}

func TestClosedHandleRejected(t *testing.T) {
	eng, v, _ := newTestView()
	inProc(t, eng, func(p *sim.Proc) error {
		f, _ := v.CreateTrunc(p, "x")
		f.Close(p)
		if _, err := f.Write(p, []byte("y")); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("write after close: %v", err)
		}
		if err := f.Close(p); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("double close: %v", err)
		}
		return nil
	})
}

func TestWriteHandleCannotRead(t *testing.T) {
	eng, v, _ := newTestView()
	inProc(t, eng, func(p *sim.Proc) error {
		f, _ := v.CreateTrunc(p, "x")
		if _, err := f.Read(p, make([]byte, 8)); err == nil {
			return errors.New("read on write handle succeeded")
		}
		return f.Close(p)
	})
}

func TestViewValidation(t *testing.T) {
	fs := NewFS(512, 4096)
	for _, dev := range []*memDevice{
		newMemDevice(256, 4096), // wrong page size
		newMemDevice(512, 100),  // too small
	} {
		func() {
			defer func() { recover() }()
			NewView(fs, dev)
			t.Errorf("mismatched view accepted: %+v", dev)
		}()
	}
}

// Property: any sequence of (name, content) writes reads back exactly, and
// file sizes are reported correctly.
func TestFSContentProperty(t *testing.T) {
	f := func(seed int64, nFiles uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eng, v, _ := newTestView()
		files := int(nFiles%8) + 1
		contents := make(map[string][]byte)
		ok := true
		eng.Go("t", func(p *sim.Proc) {
			for i := 0; i < files; i++ {
				name := fmt.Sprintf("f%02d", i)
				size := rng.Intn(4000)
				data := make([]byte, size)
				rng.Read(data)
				if err := v.WriteFile(p, name, data); err != nil {
					ok = false
					return
				}
				contents[name] = data
			}
			for name, want := range contents {
				got, err := v.ReadFile(p, name)
				if err != nil || !bytes.Equal(got, want) {
					ok = false
					return
				}
				st, _ := v.FS().Stat(name)
				if st.Size != int64(len(want)) {
					ok = false
					return
				}
			}
		})
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestReadYourOwnWritesAcrossRunBoundary: with write-back enabled, a read
// that starts mid-page and crosses an extent-run boundary must return the
// just-written (still dirty, unflushed) bytes. The file lands in one
// contiguous extent, which the test splits in metadata — the page mapping
// is unchanged but Read now stitches two runs together, exercising the
// dirty-page overlay on both sides of the seam.
func TestReadYourOwnWritesAcrossRunBoundary(t *testing.T) {
	eng := sim.NewEngine()
	dev := newMemDevice(512, 4096)
	fs := NewFS(512, 4096)
	view := NewView(fs, dev)
	view.EnableWriteBack(eng, 1024, 4)
	inProc(t, eng, func(p *sim.Proc) error {
		const ps = 512
		data := make([]byte, 6*ps+123)
		rand.New(rand.NewSource(1)).Read(data)
		if err := view.WriteFile(p, "f", data); err != nil {
			return err
		}
		ino := fs.files["f"]
		if len(ino.Extents) != 1 {
			return fmt.Errorf("setup: expected one extent, got %v", ino.Extents)
		}
		e := ino.Extents[0]
		ino.Extents = []Extent{
			{Start: e.Start, Count: 3},
			{Start: e.Start + 3, Count: e.Count - 3},
		}

		// A read from mid-page 2 to mid-page 4 crosses the run seam at
		// page 3 with an unaligned start.
		f, err := view.Open(p, "f")
		if err != nil {
			return err
		}
		start := int64(3*ps - 100)
		if err := f.SeekTo(start); err != nil {
			return err
		}
		buf := make([]byte, 2*ps)
		if _, err := io.ReadFull(fileReader{f, p}, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, data[start:start+int64(len(buf))]) {
			return fmt.Errorf("boundary-crossing read returned wrong bytes")
		}

		// Whole-file read across both runs, still before any flush.
		got, err := view.ReadFile(p, "f")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("pre-flush whole-file read mismatch")
		}

		// After the flush barrier the persisted path must agree.
		if err := view.Flush(p); err != nil {
			return err
		}
		got, err = view.ReadFile(p, "f")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("post-flush whole-file read mismatch")
		}
		return nil
	})
}

// fileReader adapts File to io.Reader for a fixed proc.
type fileReader struct {
	f *File
	p *sim.Proc
}

func (r fileReader) Read(b []byte) (int, error) { return r.f.Read(r.p, b) }

// audit checks the allocation bitmap against the named files: every page an
// extent covers lies in the data area, is allocated and has one owner, and
// no other data page is allocated. A writer still open is not named in
// fs.files only if its file was replaced or deleted, so callers audit with
// every writer closed.
func audit(fs *FS) error {
	owner := map[int64]string{}
	for name, ino := range fs.files {
		for _, e := range ino.Extents {
			if e.Start < metaPages {
				return fmt.Errorf("%s has page %d below the data area", name, e.Start)
			}
			for pg := e.Start; pg < e.Start+e.Count; pg++ {
				if o, dup := owner[pg]; dup {
					return fmt.Errorf("page %d belongs to %s and %s", pg, o, name)
				}
				if fs.isFree(pg) {
					return fmt.Errorf("page %d of %s is free", pg, name)
				}
				owner[pg] = name
			}
		}
	}
	for pg := int64(metaPages); pg < fs.pages; pg++ {
		if _, ok := owner[pg]; !ok && !fs.isFree(pg) {
			return fmt.Errorf("page %d is allocated to no file", pg)
		}
	}
	return nil
}

// slowTrims is a memDevice whose trims take virtual time, the window in
// which a replace used to leave its name missing.
type slowTrims struct{ *memDevice }

func (d slowTrims) TrimPages(p *sim.Proc, lpn, count int64) error {
	p.Wait(50 * time.Microsecond)
	return d.memDevice.TrimPages(p, lpn, count)
}

// CreateTrunc names the new inode before it trims the old one, so the name
// is never missing; a writer it displaces keeps writing into its own pages,
// and its Close releases them.
func TestCreateTruncOverOpenWriter(t *testing.T) {
	eng := sim.NewEngine()
	fs := NewFS(512, 4096)
	v := NewView(fs, slowTrims{newMemDevice(512, 4096)})
	first, second := bytes.Repeat([]byte("first "), 700), bytes.Repeat([]byte("2nd "), 300)
	var a *File
	eng.Go("a", func(p *sim.Proc) {
		if err := v.WriteFile(p, "f", []byte("stale")); err != nil {
			t.Error(err)
		}
		var err error
		if a, err = v.CreateTrunc(p, "f"); err != nil { // trims "stale" for 50 µs
			t.Error(err)
		}
		p.Wait(100 * time.Microsecond)
		if _, err := a.Write(p, first); err != nil { // nameless by now
			t.Error(err)
		}
		if err := a.Close(p); err != nil {
			t.Error(err)
		}
	})
	eng.Go("b", func(p *sim.Proc) {
		p.Wait(60 * time.Microsecond) // a's trims under way
		if _, err := fs.Stat("f"); err != nil {
			t.Errorf("during a replace: %v", err)
		}
		p.Wait(20 * time.Microsecond)
		if err := v.WriteFile(p, "f", second); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	inProc(t, eng, func(p *sim.Proc) error {
		if got, err := v.ReadFile(p, "f"); err != nil || !bytes.Equal(got, second) {
			return fmt.Errorf("f is %d bytes (%v), want the second writer's %d", len(got), err, len(second))
		}
		return audit(fs)
	})
}

// A writer that fails partway discards its file; one replaced meanwhile
// leaves its successor alone; a deleted writer's pages go at its Close.
func TestDiscardAndDeleteUnderWriter(t *testing.T) {
	eng, v, _ := newTestView()
	inProc(t, eng, func(p *sim.Proc) error {
		w, _ := v.CreateTrunc(p, "partial")
		w.Write(p, make([]byte, 3000))
		if err := w.Discard(p); err != nil {
			return err
		}
		if _, err := v.FS().Stat("partial"); !errors.Is(err, ErrNotExist) {
			return fmt.Errorf("discarded file: %v", err)
		}
		w, _ = v.CreateTrunc(p, "f")
		w.Write(p, make([]byte, 700))
		if err := v.WriteFile(p, "f", []byte("successor")); err != nil {
			return err
		}
		if err := w.Discard(p); err != nil {
			return err
		}
		if got, err := v.ReadFile(p, "f"); err != nil || string(got) != "successor" {
			return fmt.Errorf("after the replaced writer's discard f is %q, %v", got, err)
		}
		w, _ = v.CreateTrunc(p, "g")
		w.Write(p, make([]byte, 900))
		if err := v.Delete(p, "g"); err != nil {
			return err
		}
		w.Write(p, make([]byte, 900))
		if err := w.Close(p); err != nil {
			return err
		}
		if len(listFiles(v.FS())) != 1 {
			return fmt.Errorf("files left: %+v", listFiles(v.FS()))
		}
		return audit(v.FS())
	})
}

// listFiles returns all files sorted by name.
func listFiles(fs *FS) []FileInfo {
	out := make([]FileInfo, 0, len(fs.files))
	for _, ino := range fs.files {
		out = append(out, FileInfo{Name: ino.Name, Size: ino.Size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// usedBytes returns the total logical size of all files.
func usedBytes(fs *FS) int64 {
	var n int64
	for _, ino := range fs.files {
		n += ino.Size
	}
	return n
}
