package minfs

import (
	"fmt"

	"compstor/internal/sim"
)

// Write-back caching: a view with write-back enabled accepts writes into a
// dirty-page cache (bounded by a page budget, applying backpressure like a
// real page cache) and lands them on the device from background flusher
// processes. Reads overlay dirty pages, so a view always sees its own
// writes. Flush blocks until every write queued before it has landed — the
// fsync barrier callers need before handing files to another view (the host
// client calls it before dispatching a minion; the ISPS flushes after a task
// so responses imply durable outputs) — and not for writes queued after it.
type writeBack struct {
	dev     BlockDevice
	budget  *sim.Semaphore // dirty-page tokens
	queue   *sim.Mailbox[wbItem]
	pending map[int64]*wbEntry
	inFlite map[int64]bool
	landed  sim.Cond // flushers waiting for their page's in-flight write

	tickets uint64      // puts so far: the i-th put takes ticket i
	marks   []flushMark // parked Flush calls, oldest first, each woken by one Signal of flushed
	flushed sim.Cond
	free    []*wbEntry // recycled entries, page buffer attached
	err     error      // first background write error; sticky, like an EIO-poisoned page cache
}

// wbEntry is one dirty page. refs counts who can still reach it — the
// pending map, and each flusher between picking it up and resolving its
// queue item — and the entry returns to the free list, page buffer and all,
// only when the last of them lets go: a flusher compares entries by pointer
// to detect being superseded, so an entry reused while one still held it
// would pass for the original.
type wbEntry struct {
	data   []byte
	seq    uint64 // the ticket of the put that wrote data
	oldest uint64 // the oldest ticket it answers for: a write superseding a page inherits its ticket
	refs   int
}

type wbItem struct {
	lpn int64
	seq uint64
}

// flushMark is one parked Flush: the last ticket issued before it, and how
// many pending pages still answer for a ticket at or below that.
type flushMark struct {
	ticket uint64
	left   int
}

// EnableWriteBack turns on asynchronous write-behind for this view with
// the given dirty budget (pages) and flusher parallelism. It must be called
// before any I/O through the view.
func (v *View) EnableWriteBack(eng *sim.Engine, budgetPages, workers int) {
	if v.wb != nil {
		return
	}
	wb := &writeBack{
		dev:     v.dev,
		budget:  sim.NewSemaphore(eng, budgetPages),
		queue:   sim.NewMailbox[wbItem](),
		pending: make(map[int64]*wbEntry),
		inFlite: make(map[int64]bool),
	}
	v.wb = wb
	for i := 0; i < workers; i++ {
		eng.Go(fmt.Sprintf("wb-flusher%d", i), wb.flusher)
	}
}

// write routes a page-aligned write through the cache (or straight to the
// device when write-back is off).
func (v *View) write(p *sim.Proc, lpn int64, data []byte) error {
	if v.wb == nil {
		return v.dev.WritePages(p, lpn, data)
	}
	ps := v.fs.pageSize
	for off := 0; off < len(data); off += ps {
		v.wb.put(p, lpn+int64(off/ps), data[off:])
	}
	return nil
}

// put caches a copy of the first page of src and queues it, blocking on the
// dirty budget. The copy is always exactly one page (a short src is
// zero-padded): the read overlay substitutes ent.data wholesale for the
// device page, so a short entry would splice stale device bytes into its
// tail.
func (wb *writeBack) put(p *sim.Proc, lpn int64, src []byte) {
	wb.budget.Acquire(p, 1)
	var ent *wbEntry
	if n := len(wb.free); n > 0 {
		ent = wb.free[n-1]
		wb.free = wb.free[:n-1]
	} else {
		ent = &wbEntry{data: make([]byte, wb.dev.PageSize())}
	}
	clear(ent.data[copy(ent.data, src):])
	wb.tickets++
	ent.seq, ent.oldest, ent.refs = wb.tickets, wb.tickets, 1
	if old, ok := wb.pending[lpn]; ok {
		ent.oldest = old.oldest
		wb.release(old)
	}
	wb.pending[lpn] = ent
	wb.queue.Put(wbItem{lpn: lpn, seq: ent.seq})
}

// release drops one reference to ent (see wbEntry).
func (wb *writeBack) release(ent *wbEntry) {
	if ent.refs--; ent.refs == 0 {
		wb.free = append(wb.free, ent)
	}
}

// unpend removes ent from the cache, giving up the pending map's reference
// and closing the tickets it answers for: each Flush whose last ticket is at
// or above ent.oldest has one page fewer to wait for, and those left with
// none — the oldest marks, since a later mark waits for everything an
// earlier one does — wake.
func (wb *writeBack) unpend(lpn int64, ent *wbEntry) {
	delete(wb.pending, lpn)
	for i := range wb.marks {
		if wb.marks[i].ticket >= ent.oldest {
			wb.marks[i].left--
		}
	}
	n := 0
	for ; n < len(wb.marks) && wb.marks[n].left == 0; n++ {
		wb.flushed.Signal()
	}
	wb.marks = wb.marks[:copy(wb.marks, wb.marks[n:])]
	wb.release(ent)
}

// flusher is one background write-out process. An item whose page a newer
// write superseded is dropped: the newer item lands the latest data.
func (wb *writeBack) flusher(p *sim.Proc) {
	for {
		item, ok := wb.queue.Recv(p)
		if !ok {
			return
		}
		if ent := wb.pending[item.lpn]; ent != nil && ent.seq == item.seq {
			wb.land(p, item.lpn, ent)
		}
		wb.budget.Release(1)
	}
}

// land writes ent, page lpn's pending version, to the device after any write
// of the page already in flight, so a page's writes land in order — unless a
// newer write supersedes ent meanwhile.
func (wb *writeBack) land(p *sim.Proc, lpn int64, ent *wbEntry) {
	ent.refs++ // held across the waits below
	defer wb.release(ent)
	for wb.inFlite[lpn] {
		wb.landed.Wait(p)
	}
	if wb.pending[lpn] != ent {
		return
	}
	wb.inFlite[lpn] = true
	err := wb.dev.WritePages(p, lpn, ent.data)
	delete(wb.inFlite, lpn)
	wb.landed.Broadcast()
	if err != nil && wb.err == nil {
		// A background write error poisons the cache: the data is lost, the
		// error is sticky, and every later write or Flush through this view
		// reports it — a real page cache surfaces the same failure as EIO at
		// fsync.
		wb.err = fmt.Errorf("minfs: write-back flush of lpn %d: %w", lpn, err)
	}
	if wb.pending[lpn] == ent {
		wb.unpend(lpn, ent)
	}
}

// Flush blocks until every write issued through the view before the call is
// on the device: each page pending at the call has landed, failed, or been
// trimmed, or a later write that superseded it has landed. Writes that other
// processes queue while it waits do not hold it up. It reports any
// background write error (the fsync contract: a lost write surfaces here, not
// silently). Like Linux fsync, the error is reported once and then cleared —
// a caller that rewrites the lost data and flushes again can recover from a
// transient fault. When the device implements Syncer the landed data is then
// made power-loss durable with a device barrier, so Flush is fsync all the
// way to the media. Views without write-back still issue the device barrier.
func (v *View) Flush(p *sim.Proc) error {
	var err error
	if wb := v.wb; wb != nil {
		if n := len(wb.pending); n > 0 {
			wb.marks = append(wb.marks, flushMark{wb.tickets, n})
			wb.flushed.Wait(p)
		}
		err = wb.err
		wb.err = nil
	}
	if s, ok := v.dev.(Syncer); ok {
		if serr := s.Sync(p); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// readInto routes a page-range read into dst (a whole number of pages),
// overlaying dirty pages. A device without the PageReaderInto capability is
// read through ReadPages and copied.
func (v *View) readInto(p *sim.Proc, lpn int64, dst []byte) error {
	ps := int64(v.fs.pageSize)
	count := int64(len(dst)) / ps
	if r, ok := v.dev.(PageReaderInto); ok {
		if err := r.ReadPagesInto(p, lpn, dst); err != nil {
			return err
		}
	} else {
		data, err := v.dev.ReadPages(p, lpn, count)
		if err != nil {
			return err
		}
		copy(dst, data)
	}
	if v.wb != nil && len(v.wb.pending) > 0 {
		// Overlay dirty pages one page at a time: multi-page runs may mix
		// clean and dirty pages (and, with fragmented extents, the caller
		// stitches runs together page-wise), so each page resolves
		// independently. ent.data is always a full page (see put), making
		// whole-page substitution safe.
		for i := int64(0); i < count; i++ {
			if ent, ok := v.wb.pending[lpn+i]; ok {
				copy(dst[i*ps:(i+1)*ps], ent.data)
			}
		}
	}
	return nil
}

// trim routes a trim, invalidating overlapping dirty pages first.
func (v *View) trim(p *sim.Proc, lpn, count int64) error {
	if v.wb != nil {
		for i := int64(0); i < count; i++ {
			if ent, ok := v.wb.pending[lpn+i]; ok {
				v.wb.unpend(lpn+i, ent)
			}
		}
	}
	return v.dev.TrimPages(p, lpn, count)
}
