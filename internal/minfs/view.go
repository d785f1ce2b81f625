package minfs

import (
	"fmt"
	"io"
	"math/bits"
	"sync"

	"compstor/internal/sim"
)

// View binds filesystem metadata to one access path (host NVMe or ISPS
// flash driver). Data and metadata I/O issued through a view pays that
// path's costs.
type View struct {
	fs  *FS
	dev BlockDevice
	wb  *writeBack
	// scratch is a free list of transient read-staging buffers, each held
	// only for the duration of one call; several processes read through one
	// view at once, so one buffer is not enough.
	scratch [][]byte
}

// getScratch returns a buffer of n bytes with arbitrary contents; hand it
// back with putScratch.
func (v *View) getScratch(n int) []byte {
	if k := len(v.scratch); k > 0 {
		b := v.scratch[k-1]
		v.scratch = v.scratch[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func (v *View) putScratch(b []byte) { v.scratch = append(v.scratch, b) }

// NewView creates an access path onto fs through dev. The device must match
// the filesystem's page size and be at least as large as its page count.
func NewView(fs *FS, dev BlockDevice) *View {
	if dev.PageSize() != fs.pageSize {
		panic(fmt.Sprintf("minfs: view page size %d != fs page size %d", dev.PageSize(), fs.pageSize))
	}
	if dev.Pages() < fs.pages {
		panic("minfs: device smaller than filesystem")
	}
	return &View{fs: fs, dev: dev}
}

// FS returns the shared metadata object.
func (v *View) FS() *FS { return v.fs }

// Pipelined reports whether this view's device serves reads through a
// caching/prefetching pipeline: a Prefetcher that advises read-ahead.
func (v *View) Pipelined() bool {
	pf, ok := v.dev.(Prefetcher)
	return ok && pf.ReadAheadPages() > 0
}

// CreateTrunc makes a new file open for writing, atomically replacing any
// file of that name: the new inode takes the name before the old one's
// trims wait on the device, so no process finds the name missing, and a
// writer racing this one replaces it in turn instead of failing.
func (v *View) CreateTrunc(p *sim.Proc, name string) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrNotExist)
	}
	old := v.fs.files[name]
	f := &File{view: v, ino: &Inode{Name: name, writing: true}, writable: true}
	v.fs.files[name] = f.ino
	if err := v.release(p, old); err != nil {
		f.Close(p) // an empty file keeps the name
		return nil, err
	}
	return f, nil
}

// release trims and frees the pages of an inode no name maps to any more
// (nil: none). One still open for writing keeps filling the extent it
// pre-allocated, and its writer's Close releases it.
func (v *View) release(p *sim.Proc, ino *Inode) error {
	if ino == nil || ino.writing {
		return nil
	}
	for _, e := range ino.Extents {
		if err := v.trim(p, e.Start, e.Count); err != nil {
			return err
		}
	}
	v.fs.freeExtents(ino.Extents)
	return nil
}

// Open opens an existing file for reading.
func (v *View) Open(p *sim.Proc, name string) (*File, error) {
	ino, ok := v.fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return &File{view: v, ino: ino}, nil
}

// ReadFile reads a whole file through this view.
func (v *View) ReadFile(p *sim.Proc, name string) ([]byte, error) {
	f, err := v.Open(p, name)
	if err != nil {
		return nil, err
	}
	return f.ReadAll(func(b []byte) (int, error) { return f.Read(p, b) })
}

// WriteFile creates name (replacing any existing file) with the given
// contents. On failure nothing is left under the name.
func (v *View) WriteFile(p *sim.Proc, name string, data []byte) error {
	f, err := v.CreateTrunc(p, name)
	if err != nil {
		return err
	}
	if _, err = f.Write(p, data); err == nil {
		err = f.Close(p)
	}
	if err != nil {
		f.Discard(p)
	}
	return err
}

// File is an open file handle with a cursor. Writes append; a partial
// trailing page is buffered until Close.
type File struct {
	view     *View
	ino      *Inode
	writable bool
	closed   bool
	off      int64  // read cursor
	buf      []byte // pending unflushed tail (writers only), a page from bufs

	// Sequential read detection (readers only): lastEnd is where the
	// previous Read left the cursor; raNext is the next page ordinal not
	// yet offered to the device's prefetcher. lastEnd starts at 0 so a
	// scan that opens a file and reads from the beginning — the common
	// cold-scan shape — prefetches from its very first Read.
	lastEnd int64
	raNext  int64
}

// Size returns the current logical size, including buffered bytes.
func (f *File) Size() int64 { return f.ino.Size + int64(len(f.buf)) }

// Write appends data to the file. Whole-page spans bypass the tail buffer
// and go to the device as multi-page runs, which the block layer turns into
// single commands.
func (f *File) Write(p *sim.Proc, data []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if !f.writable {
		return 0, fmt.Errorf("minfs: %s not open for writing", f.ino.Name)
	}
	total := len(data)
	ps := f.view.fs.pageSize
	for len(data) > 0 {
		if len(f.buf) == 0 && len(data) >= ps {
			// Direct path: size is page-aligned whenever the tail buffer is
			// empty, so whole pages append in place.
			pages := int64(len(data) / ps)
			lpn, cnt, err := f.appendRun(pages)
			if err != nil {
				return total - len(data), err
			}
			w := int(min(cnt, pages)) * ps
			if err := f.view.write(p, lpn, data[:w]); err != nil {
				return total - len(data), err
			}
			f.ino.Size += int64(w)
			data = data[w:]
			continue
		}
		if f.buf == nil {
			f.buf = GetBuf(ps)[:0]
		}
		n := min(ps-len(f.buf), len(data))
		f.buf = append(f.buf, data[:n]...)
		data = data[n:]
		if len(f.buf) == ps {
			if err := f.flushPage(p); err != nil {
				return total - len(data), err
			}
			f.buf = f.buf[:0]
		}
	}
	return total, nil
}

// appendRun returns a contiguous allocated run starting at the file's next
// page ordinal, allocating a fresh extent when needed.
func (f *File) appendRun(want int64) (lpn, cnt int64, err error) {
	ps := int64(f.view.fs.pageSize)
	pgIdx := f.ino.Size / ps
	if l, c, ok := f.runAt(pgIdx); ok {
		return l, c, nil
	}
	ext, err := f.view.fs.allocExtent(max(want, 256))
	if err != nil {
		return 0, 0, err
	}
	f.ino.Extents = appendExtent(f.ino.Extents, ext)
	l, c, ok := f.runAt(pgIdx)
	if !ok {
		return 0, 0, fmt.Errorf("minfs: allocation lost for %s", f.ino.Name)
	}
	return l, c, nil
}

// runAt maps a page ordinal to its LPN and the number of contiguously
// allocated pages from there.
func (f *File) runAt(pgIdx int64) (lpn, cnt int64, ok bool) {
	var seen int64
	for _, e := range f.ino.Extents {
		if pgIdx < seen+e.Count {
			off := pgIdx - seen
			return e.Start + off, e.Count - off, true
		}
		seen += e.Count
	}
	return 0, 0, false
}

// flushPage writes the tail buffer, one full page or the final short one
// zero-padded in place (the buffer's capacity is a page), into the file's
// extents.
func (f *File) flushPage(p *sim.Proc) error {
	lpn, _, err := f.appendRun(1)
	if err != nil {
		return err
	}
	full := f.buf[:f.view.fs.pageSize]
	clear(full[len(f.buf):])
	if err := f.view.write(p, lpn, full); err != nil {
		return err
	}
	f.ino.Size += int64(len(f.buf))
	return nil
}

// appendExtent merges adjacent extents.
func appendExtent(exts []Extent, e Extent) []Extent {
	if n := len(exts); n > 0 && exts[n-1].Start+exts[n-1].Count == e.Start {
		exts[n-1].Count += e.Count
		return exts
	}
	return append(exts, e)
}

// Read fills b from the current cursor, returning io.EOF at end of file.
// Contiguous extents are fetched as multi-page runs, one device read each. A
// run that starts on a page boundary and whose pages all fit in what is left
// of b is read in place (so, like any io.Reader, Read may use all of b as
// scratch: the padding of a file's last page can land beyond the count
// returned); a run with a ragged head or tail is staged and copied.
func (f *File) Read(p *sim.Proc, b []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if f.writable {
		return 0, fmt.Errorf("minfs: %s open for writing", f.ino.Name)
	}
	if f.off >= f.ino.Size {
		return 0, io.EOF
	}
	ps := int64(f.view.fs.pageSize)
	// Hand upcoming runs to the device's prefetcher *before* the demand
	// fetch below blocks, so background fills overlap with it.
	f.readAhead(p, int64(len(b)))
	n := 0
	for n < len(b) && f.off < f.ino.Size {
		pgIdx := f.off / ps
		lpn, run, ok := f.runAt(pgIdx)
		if !ok {
			return n, fmt.Errorf("minfs: %s: hole at page %d", f.ino.Name, pgIdx)
		}
		inPage, want := f.off%ps, int64(len(b)-n)
		run = min(run, (inPage+want+ps-1)/ps)
		avail := min(run*ps-inPage, f.ino.Size-f.off, want)
		inPlace := inPage == 0 && run*ps <= want
		var dst []byte
		if inPlace {
			dst = b[n : n+int(run*ps)]
		} else {
			dst = f.view.getScratch(int(run * ps))
		}
		err := f.view.readInto(p, lpn, dst)
		if !inPlace {
			if err == nil {
				copy(b[n:], dst[inPage:inPage+avail])
			}
			f.view.putScratch(dst)
		}
		if err != nil {
			return n, err
		}
		n += int(avail)
		f.off += avail
		f.lastEnd = f.off
	}
	return n, nil
}

// readAhead detects extent-sequential access and offers upcoming page runs
// to the device's prefetcher. want is the size of the pending demand read;
// the offered window starts past the pages that read will touch and
// extends to the device's advised distance. The device bounds in-flight
// fills; a short or zero accept simply leaves raNext behind, and later
// sequential reads re-offer from there.
func (f *File) readAhead(p *sim.Proc, want int64) {
	pf, ok := f.view.dev.(Prefetcher)
	if !ok {
		return
	}
	advise := pf.ReadAheadPages()
	if advise <= 0 {
		return
	}
	if f.off != f.lastEnd {
		// Non-sequential: break the streak and re-arm at the new position.
		f.raNext = 0
		return
	}
	ps := int64(f.view.fs.pageSize)
	filePages := (f.ino.Size + ps - 1) / ps
	endPg := (f.off + want + ps - 1) / ps // first page past the demand read
	target := min(endPg+advise, filePages)
	pg := max(f.raNext, endPg)
	for pg < target {
		lpn, run, ok := f.runAt(pg)
		if !ok {
			break
		}
		run = min(run, target-pg)
		accepted := pf.Prefetch(p, lpn, run)
		pg += accepted
		if accepted < run {
			break // in-flight window full; re-offer on a later Read
		}
	}
	f.raNext = pg
}

// SeekTo repositions the read cursor (absolute offsets only). Seeking past
// EOF is allowed, as POSIX lseek permits: subsequent reads simply return
// io.EOF. (Writers are separate append-only handles in minfs, so the
// POSIX "write after seek past EOF creates a hole" case cannot arise.)
func (f *File) SeekTo(off int64) error {
	if off < 0 {
		return fmt.Errorf("minfs: seek %d out of range", off)
	}
	f.off = off
	// A seek establishes a new sequential position: arm the streak there so
	// the first post-seek Read already offers read-ahead (chunked scans seek
	// once, then stream — each chunk drives its own prefetch window).
	f.lastEnd = off
	f.raNext = 0
	return nil
}

// Close flushes any buffered tail and releases surplus pre-allocated pages;
// a writer whose file lost its name while open releases them all.
func (f *File) Close(p *sim.Proc) error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	if !f.writable {
		return nil
	}
	f.ino.writing = false
	if f.view.fs.files[f.ino.Name] != f.ino {
		return f.view.release(p, f.ino)
	}
	var err error
	if len(f.buf) > 0 {
		err = f.flushPage(p)
	}
	Recycle(f.buf)
	f.buf = nil
	f.releaseTail(p)
	return err
}

// Discard closes the writer f if it is open and deletes its file, unless
// another writer has taken the name since: a writer that failed partway
// leaves no truncated file behind.
func (f *File) Discard(p *sim.Proc) error {
	named := f.view.fs.files[f.ino.Name] == f.ino
	if named {
		delete(f.view.fs.files, f.ino.Name)
	}
	if !f.closed {
		return f.Close(p) // nameless now: Close releases every page
	} else if named {
		return f.view.release(p, f.ino)
	}
	return nil
}

// ReadAll reads a file just opened, whole: one call of read (f's Read bound
// to a proc, or a wrapper of it) at the file's size, then one that finds
// the end. The buffer is rounded up to whole pages so that the last page,
// too, is read in place: File.Read may use all of b. The buffer comes from
// bufs, and a caller done with it may hand it back with Recycle.
func (f *File) ReadAll(read func([]byte) (int, error)) ([]byte, error) {
	ps := int64(f.view.fs.pageSize)
	buf := GetBuf(int((f.Size() + ps - 1) / ps * ps))
	n, err := read(buf)
	if err == nil {
		_, err = read(buf[n:n])
	}
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}

// bufs recycles ReadAll's results, writers' tail pages and the codecs'
// outputs (apps.Codec) by size class: bufs[k] holds buffers of at least 1<<k
// bytes. It holds scratch memory, never a result anyone still reads.
var bufs [64]sync.Pool

// GetBuf returns a buffer of n bytes with arbitrary contents from bufs.
func GetBuf(n int) []byte {
	k := bits.Len(uint(max(n, 1) - 1))
	if b, ok := bufs[k].Get().(*[]byte); ok {
		return (*b)[:n]
	}
	return make([]byte, n, 1<<k)
}

// Recycle hands back a buffer, GetBuf's or any other, once nothing refers to
// it.
func Recycle(b []byte) {
	if c := cap(b); c > 0 {
		bufs[bits.Len(uint(c))-1].Put(&b)
	}
}

// releaseTail returns over-allocated pages at the end of the file to the
// allocator and trims them.
func (f *File) releaseTail(p *sim.Proc) {
	ps := int64(f.view.fs.pageSize)
	need := (f.ino.Size + ps - 1) / ps
	var seen int64
	for i := 0; i < len(f.ino.Extents); i++ {
		e := &f.ino.Extents[i]
		if seen+e.Count <= need {
			seen += e.Count
			continue
		}
		keep := need - seen
		surplus := Extent{Start: e.Start + keep, Count: e.Count - keep}
		e.Count = keep
		f.view.fs.freeExtents([]Extent{surplus})
		f.view.trim(p, surplus.Start, surplus.Count)
		f.ino.Extents = f.ino.Extents[:i+1]
		if keep == 0 {
			f.ino.Extents = f.ino.Extents[:i]
		}
		return
	}
}
