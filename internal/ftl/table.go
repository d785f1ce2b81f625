package ftl

import "sync"

// The logical-to-physical map is a two-level table: a directory of
// fixed-size chunks, each allocated the first time one of its rows is
// written. An untouched 4 GiB drive therefore costs one nil pointer per
// mapChunkLen logical pages, and a lookup is a shift, a mask and two loads.
// (The reverse map needs no directory of its own: it lives in the per-block
// state, one lazily allocated slice per block — see blockState.p2l.)

const (
	mapChunkShift = 9
	mapChunkLen   = 1 << mapChunkShift
)

// mapEntry is one logical page's row. ppn is the physical page holding its
// data, -1 when unmapped. seq is the journal sequence that produced the
// current mapping or the page's most recent TRIM (0 = neither yet), so a
// slow concurrent program can never roll a newer write or TRIM back.
type mapEntry struct {
	ppn int64
	seq uint64
}

type mapTable struct {
	chunks []*[mapChunkLen]mapEntry
	mapped int64 // rows with ppn >= 0, maintained by whoever flips a row's ppn
}

func newMapTable(logicalPages int64) mapTable {
	return mapTable{chunks: make([]*[mapChunkLen]mapEntry, (logicalPages+mapChunkLen-1)>>mapChunkShift)}
}

// get returns lpn's row without allocating; an untouched row reads {-1, 0}.
func (t *mapTable) get(lpn int64) mapEntry {
	c := t.chunks[lpn>>mapChunkShift]
	if c == nil {
		return mapEntry{ppn: -1}
	}
	return c[lpn&(mapChunkLen-1)]
}

// row returns lpn's row for update, taking its chunk on first touch from the
// spare list (or allocating it) and resetting every row in full: a reused
// chunk's seq must not outlive its FTL any more than its ppn.
func (t *mapTable) row(lpn int64) *mapEntry {
	c := t.chunks[lpn>>mapChunkShift]
	if c == nil {
		spareChunks.Lock()
		if n := len(spareChunks.l); n > 0 {
			c, spareChunks.l = spareChunks.l[n-1], spareChunks.l[:n-1]
		}
		spareChunks.Unlock()
		if c == nil {
			c = new([mapChunkLen]mapEntry)
		}
		for i := range c {
			c[i] = mapEntry{ppn: -1}
		}
		t.chunks[lpn>>mapChunkShift] = c
	}
	return &c[lpn&(mapChunkLen-1)]
}

// live panics once Release has handed the table's chunks away.
func (t *mapTable) live() {
	if t.chunks == nil {
		panic("ftl: map access to a released FTL")
	}
}

// spareChunks holds the map chunks of released FTLs for the FTLs built after
// them (DESIGN.md §14).
var spareChunks struct {
	sync.Mutex
	l []*[mapChunkLen]mapEntry
}

// Release hands the FTL's map chunks to the spare list and retires the FTL:
// its stats can still be read, but any later map access panics.
func (f *FTL) Release() {
	spareChunks.Lock()
	for _, c := range f.l2p.chunks {
		if c != nil {
			spareChunks.l = append(spareChunks.l, c)
		}
	}
	spareChunks.Unlock()
	f.l2p.chunks = nil
}

// lpnAt returns the live record at ppn: its logical page, oobTrim for a TRIM
// record, -1 if none.
func (f *FTL) lpnAt(ppn int64) int64 {
	p2l := f.blocks[ppn/f.ppb].p2l
	if p2l == nil {
		return -1
	}
	return p2l[ppn%f.ppb]
}

// setLPNAt records (or, with lpn -1, clears) the live record at ppn. It is
// the only writer of a block's valid count: a slot going live counts, a
// slot going back to -1 stops counting.
func (f *FTL) setLPNAt(ppn, lpn int64) {
	st := &f.blocks[ppn/f.ppb]
	if st.p2l == nil {
		st.p2l = make([]int64, f.ppb)
		for i := range st.p2l {
			st.p2l[i] = -1
		}
	}
	slot := &st.p2l[ppn%f.ppb]
	switch {
	case *slot == -1 && lpn != -1:
		st.valid++
	case *slot != -1 && lpn == -1:
		st.valid--
	}
	*slot = lpn
}

// getPage returns a page buffer with arbitrary contents from the FTL's free
// list. GC relocation, TRIM records, checkpoint commits and recovery's
// payload checks borrow one for the life of a record and hand it back with
// putPage; the list grows to the number of such records ever in flight at
// once (a GC pass beside a block retirement, say) and then stops allocating.
func (f *FTL) getPage() []byte {
	if n := len(f.pageFree); n > 0 {
		b := f.pageFree[n-1]
		f.pageFree = f.pageFree[:n-1]
		return b
	}
	return make([]byte, f.geo.PageSize)
}

func (f *FTL) putPage(b []byte) { f.pageFree = append(f.pageFree, b) }
