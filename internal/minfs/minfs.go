// Package minfs implements a minimal extent-based filesystem over a paged
// block device. It plays the role of the shared on-SSD namespace in the
// CompStor stack: the host client writes input files through the NVMe view,
// the in-storage executable opens the very same files through the ISPS
// flash-access driver view, and output files travel the other way.
//
// Metadata (a flat directory of inodes with extent lists) lives only in
// device memory: one FS is shared by both views, so there is no superblock
// and no mount. Data pages are allocated from a bitmap with a next-fit
// extent allocator and trimmed on delete.
package minfs

import (
	"errors"
	"fmt"

	"compstor/internal/sim"
)

// BlockDevice is the paged storage a filesystem view runs on. The host view
// wraps the NVMe driver; the ISPS view wraps the FTL directly. Range
// operations let the device exploit channel parallelism and amortise
// protocol overhead — a single ReadPages maps to one NVMe command.
type BlockDevice interface {
	PageSize() int
	Pages() int64
	// ReadPages returns count pages starting at lpn (count*PageSize bytes).
	ReadPages(p *sim.Proc, lpn, count int64) ([]byte, error)
	// WritePages stores data (a whole number of pages) starting at lpn.
	WritePages(p *sim.Proc, lpn int64, data []byte) error
	// TrimPages deallocates count pages starting at lpn.
	TrimPages(p *sim.Proc, lpn, count int64) error
}

// PageReaderInto is an optional BlockDevice capability: ReadPages with the
// destination passed in. dst is a whole number of pages and is filled from
// lpn on; the device must not keep a reference to it. A view reads through
// it when the device has it — whole-page spans of a File.Read then land in
// the caller's buffer with no copy in between — and falls back to ReadPages
// plus a copy when it does not, which is why this is a capability and not a
// fourth required method: every BlockDevice written against the three-method
// interface keeps working unchanged.
type PageReaderInto interface {
	ReadPagesInto(p *sim.Proc, lpn int64, dst []byte) error
}

// Syncer is an optional BlockDevice capability: Sync is the device-level
// durability barrier (an NVMe FLUSH, or the FTL checkpoint on the dedicated
// in-storage path). View.Flush invokes it after draining the write-back
// cache, completing the fsync contract down to the media.
type Syncer interface {
	Sync(p *sim.Proc) error
}

// Prefetcher is an optional BlockDevice capability: a device with a read
// pipeline accepts asynchronous read-ahead hints. File readers detect
// extent-sequential access and offer upcoming page runs; the device warms
// them into its cache from background processes, bounded by its in-flight
// window. View.Pipelined reports such a device to the cost model.
type Prefetcher interface {
	// ReadAheadPages is the advised read-ahead distance in pages
	// (0 = prefetching disabled).
	ReadAheadPages() int64
	// Prefetch schedules up to count pages starting at lpn to be warmed
	// asynchronously and returns how many pages were accepted (0 when the
	// in-flight window is full). It never blocks on media; it is a hint
	// and carries no completion or error semantics.
	Prefetch(p *sim.Proc, lpn, count int64) int64
}

// Filesystem errors.
var (
	ErrNotExist = errors.New("minfs: file does not exist")
	ErrNoSpace  = errors.New("minfs: no space")
	ErrClosed   = errors.New("minfs: file closed")
)

// metaPages is where the data area starts. Nothing is written below it:
// metadata lives only in device memory. It stays at 64 because moving it
// moves every file's LPNs, and with them every simulated number.
const metaPages = 64

// Extent is a contiguous run of logical pages.
type Extent struct {
	Start int64
	Count int64
}

// Inode describes one file.
type Inode struct {
	Name    string
	Size    int64
	Extents []Extent
	writing bool // a writer is open on it (see View.release)
}

// FileInfo is the public view of an inode.
type FileInfo struct {
	Name string
	Size int64
}

// FS holds the (device-resident) metadata of one filesystem instance. All
// data-path I/O goes through a View, which binds the metadata to a
// particular access path.
type FS struct {
	pageSize int
	pages    int64
	files    map[string]*Inode
	bitmap   []uint64 // data page allocation, bit set = in use
	nextFit  int64
}

// NewFS formats a fresh filesystem for a device with the given page size
// and page count.
func NewFS(pageSize int, pages int64) *FS {
	if pageSize <= 0 || pages <= metaPages {
		panic("minfs: device too small")
	}
	return &FS{
		pageSize: pageSize,
		pages:    pages,
		files:    make(map[string]*Inode),
		bitmap:   make([]uint64, (pages+63)/64),
		nextFit:  metaPages,
	}
}

// PageSize returns the filesystem page size.
func (fs *FS) PageSize() int { return fs.pageSize }

// Stat returns the file's info.
func (fs *FS) Stat(name string) (FileInfo, error) {
	ino, ok := fs.files[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return FileInfo{Name: ino.Name, Size: ino.Size}, nil
}

// ExtentRunStarts returns the byte offsets within the named file at which
// a new media-contiguous extent run begins — every boundary where the next
// logical page is not physically adjacent to the previous one. Offset 0 is
// excluded, offsets at or past the file size are dropped. Split-scan uses
// these to snap chunk cuts to media contiguity.
func (fs *FS) ExtentRunStarts(name string) ([]int64, error) {
	ino, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	var out []int64
	var pages int64
	for i, e := range ino.Extents {
		if i > 0 {
			if off := pages * int64(fs.pageSize); off < ino.Size {
				out = append(out, off)
			}
		}
		pages += e.Count
	}
	return out, nil
}

// bitmap helpers.

func (fs *FS) isFree(pg int64) bool { return fs.bitmap[pg/64]&(1<<(pg%64)) == 0 }
func (fs *FS) mark(pg int64)        { fs.bitmap[pg/64] |= 1 << (pg % 64) }
func (fs *FS) clear(pg int64)       { fs.bitmap[pg/64] &^= 1 << (pg % 64) }

// allocExtent grabs up to want contiguous free pages (at least 1), starting
// the search at the next-fit cursor. Returns ErrNoSpace when the device is
// full.
func (fs *FS) allocExtent(want int64) (Extent, error) {
	want = max(want, 1)
	for _, r := range [2][2]int64{{fs.nextFit, fs.pages}, {metaPages, fs.nextFit}} {
		var ext Extent
		for pg := r[0]; pg < r[1] && ext.Count < want; pg++ {
			if fs.isFree(pg) {
				if ext.Count == 0 {
					ext.Start = pg
				}
				ext.Count++
			} else if ext.Count > 0 {
				break // take the partial run rather than hunt for a perfect fit
			}
		}
		if ext.Count > 0 {
			fs.commit(ext)
			return ext, nil
		}
	}
	return Extent{}, ErrNoSpace
}

func (fs *FS) commit(ext Extent) {
	for i := int64(0); i < ext.Count; i++ {
		fs.mark(ext.Start + i)
	}
	fs.nextFit = ext.Start + ext.Count
	if fs.nextFit >= fs.pages {
		fs.nextFit = metaPages
	}
}

func (fs *FS) freeExtents(exts []Extent) {
	for _, e := range exts {
		for i := int64(0); i < e.Count; i++ {
			fs.clear(e.Start + i)
		}
	}
}
