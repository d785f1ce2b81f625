package ssd

import (
	"fmt"

	"compstor/internal/flash"
	"compstor/internal/sim"
)

// The streaming in-device read pipeline, how the stock CompStor reads: an
// ISPS-DRAM page cache in front of the FTL plus a sequential read-ahead
// prefetcher, carved out of the subsystem's 8 GB DDR4 budget
// (isps.Subsystem.ReserveDRAM). Ablation.SerialReads is the ablation without
// it, the paper's synchronous read loop. It exists only on an in-situ
// drive's dedicated flash path.
//
// The cache shares flash pages instead of copying them. An entry records
// which logical page is resident; a hit resolves it through the FTL's live
// mapping (ftl.PeekPageInto) and copies it once, into the reader's
// destination, at DRAM bandwidth. GC relocation stays a hit, erase-and-reuse
// cannot serve stale bytes, and a page corrupted after it was cached fails
// its CRC, becomes a miss and surfaces as ftl.ErrCorrupt. Writes and TRIMs
// invalidate; Remount drops everything, as a power cut empties DRAM. Every
// structure is sized when the drive is built, so a read allocates nothing.
// The sizes are model constants; no experiment varies them.
const (
	// cachePages sizes the LRU page cache: 64 MiB at 4 KiB pages, which holds
	// a scan workload's per-device working set and is under 1% of the ISPS's
	// 8 GB, so tasks barely notice the reservation.
	cachePages = 16384
	// readAheadPages is the run length of one background fill, 256 KiB (the
	// split-scan chunk floor, so one fill covers a minimal chunk), and the
	// granularity the fill window counts.
	readAheadPages = 64
	// fillWindow bounds concurrently running background fills per drive: one
	// per ISPS core, 1 MiB in flight.
	fillWindow = 4
	// dramBytesPerSec is the cache-hit copy bandwidth, DDR4-2133 peak.
	dramBytesPerSec = 17e9
)

// ReadCacheStats is a snapshot of the pipeline's counters.
type ReadCacheStats struct {
	Hits          int64 // demand pages served from ISPS DRAM
	Misses        int64 // demand pages fetched from flash
	Evictions     int64 // pages LRU-evicted
	Invalidations int64 // cached pages dropped by write/TRIM/remount or a failed check
	PrefetchRuns  int64 // background fill processes spawned
	PrefetchPages int64 // pages fetched by background fills
	StaleFills    int64 // fills discarded because the page changed mid-flight
	CachedPages   int64 // current occupancy
}

// pageCache is readCache, or in tests the copying cache it replaced.
type pageCache interface {
	readPages(p *sim.Proc, lpn, count int64, out []byte) error
	prefetch(p *sim.Proc, lpn, count int64) int64
	invalidate(lpn, count int64)
	dropAll()
	Stats() ReadCacheStats
}

// lruSlot is one resident logical page and its neighbours in recency order,
// as slot indices into a circular list whose sentinel is slot 0.
type lruSlot struct {
	lpn        int64
	prev, next uint32
}

// The bits of readCache.page's word for a logical page.
const (
	fetchBit = 1 << 31      // a fetch of the page is in flight
	staleBit = 1 << 30      // and the page changed since: the fetch discards its result
	slotMask = staleBit - 1 // the slot the page is resident in, 0 if none
)

// readCache is the ISPS-DRAM page cache plus prefetch machinery. Like
// every structure in the simulation it is single-threaded under the
// cooperative engine: all mutation happens from sim procs, never
// concurrently, so plain slices and counters are safe and deterministic.
type readCache struct {
	s *SSD

	// page is indexed by logical page number and sized with the drive, one
	// word (slotMask, fetchBit, staleBit) a page. Invalidation cannot stop a
	// fetch, so it marks it stale and the fetch discards its result; demand
	// readers wait on landing until fetchBit clears.
	page     []uint32
	landing  sim.Cond  // readers of pages in flight, woken as a fetch lands
	slots    []lruSlot // slot 0's next is the most recently used, its prev the least
	free     []uint32  // slots holding no page
	fills    [][]int64 // idle fill lists, one per window slot
	scratch  []byte    // where fills land: the cache keeps no bytes
	inflight int       // running background fills
	seq      int64     // fill proc naming counter

	stats ReadCacheStats
}

func newReadCache(s *SSD) *readCache {
	c := &readCache{
		s:       s,
		page:    make([]uint32, s.ftl.LogicalPages()),
		slots:   make([]lruSlot, cachePages+1),
		free:    make([]uint32, 0, cachePages),
		scratch: make([]byte, s.PageSize()),
	}
	for range fillWindow {
		c.fills = append(c.fills, make([]int64, 0, readAheadPages))
	}
	c.empty()
	return c
}

// LRU plumbing -----------------------------------------------------------------

// empty makes every slot free; no page may name one.
func (c *readCache) empty() {
	c.slots[0] = lruSlot{}
	c.free = c.free[:0]
	for i := uint32(len(c.slots) - 1); i > 0; i-- {
		c.free = append(c.free, i)
	}
}

func (c *readCache) unlink(i uint32) {
	e := c.slots[i]
	c.slots[e.prev].next = e.next
	c.slots[e.next].prev = e.prev
}

func (c *readCache) pushFront(i uint32) {
	first := c.slots[0].next
	c.slots[i].prev, c.slots[i].next = 0, first
	c.slots[first].prev = i
	c.slots[0].next = i
}

// remove drops the page resident in slot i.
func (c *readCache) remove(i uint32) {
	c.unlink(i)
	c.page[c.slots[i].lpn] &^= slotMask
	c.free = append(c.free, i)
}

// hit serves a resident page into dst and refreshes its recency. A page
// whose flash copy no longer verifies is dropped and reported as a miss.
func (c *readCache) hit(lpn int64, dst []byte) bool {
	i := c.page[lpn] & slotMask
	if i == 0 {
		return false
	}
	if !c.s.ftl.PeekPageInto(lpn, dst) {
		c.remove(i)
		c.stats.Invalidations++
		return false
	}
	c.unlink(i)
	c.pushFront(i)
	return true
}

// insert makes a page resident (or refreshes it), evicting from the LRU
// tail when full.
func (c *readCache) insert(lpn int64) {
	i := c.page[lpn] & slotMask
	switch {
	case i != 0:
		c.unlink(i)
	case len(c.free) > 0:
		i = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	default:
		i = c.slots[0].prev
		c.unlink(i)
		c.page[c.slots[i].lpn] &^= slotMask
		c.stats.Evictions++
	}
	c.slots[i].lpn = lpn
	c.page[lpn] |= i
	c.pushFront(i)
}

// Invalidation ------------------------------------------------------------------

// invalidate drops count pages starting at lpn: resident pages are removed
// and in-flight fetches are marked stale so they discard their result. Every
// path that changes logical content (host NVMe write/TRIM, ISPS-path
// write/TRIM) calls this *after* the FTL operation completes, so a
// concurrent fetch either reads the new mapping, is marked stale mid-flight,
// or had its entry removed here — never a stale serve. Pages past the drive's
// end were never cached.
func (c *readCache) invalidate(lpn, count int64) {
	for l := max(lpn, 0); l < min(lpn+count, int64(len(c.page))); l++ {
		if i := c.page[l] & slotMask; i != 0 {
			c.remove(i)
			c.stats.Invalidations++
		}
		if c.page[l]&fetchBit != 0 {
			c.page[l] |= staleBit
		}
	}
}

// dropAll empties the cache wholesale — ISPS DRAM does not survive a power
// cut, so Remount calls this before serving any post-recovery read.
func (c *readCache) dropAll() {
	c.stats.Invalidations += c.resident()
	for l, w := range c.page {
		if w&fetchBit != 0 {
			w |= staleBit
		}
		c.page[l] = w &^ slotMask
	}
	c.empty()
}

// resident counts the pages in the cache.
func (c *readCache) resident() int64 { return int64(len(c.slots) - 1 - len(c.free)) }

// Demand path -------------------------------------------------------------------

// readPages is the demand read into out (count pages): driver latency, then
// per page either an ISPS-DRAM copy (hit), a wait for an in-flight fill to
// land, or a flash fetch (miss, fanned out channel-parallel and made resident
// read-through).
func (c *readCache) readPages(p *sim.Proc, lpn, count int64, out []byte) error {
	p.Wait(ispsDriverLatency)
	if c.s.dev.PoweredOff() {
		// A powered-off device serves nothing — the DRAM cache least of all.
		return flash.ErrPowerLoss
	}
	ps := int64(c.s.PageSize())

	// Wait out in-flight fills covering the request, then classify pages. A
	// miss is registered the moment it is classified: this reader may wait
	// again before it fetches (the next page's fill, the hit copy), and
	// whoever took the page for unclaimed meanwhile would clear this
	// registration.
	miss := c.s.newBatch()
	defer miss.release()
	hitPages := int64(0)
	for i := int64(0); i < count; i++ {
		for c.page[lpn+i]&fetchBit != 0 {
			c.landing.Wait(p)
		}
		dst := out[i*ps : (i+1)*ps]
		if c.hit(lpn+i, dst) {
			hitPages++
		} else {
			c.page[lpn+i] |= fetchBit
			miss.pages = append(miss.pages, pageRead{lpn + i, dst})
		}
	}
	c.stats.Hits += hitPages
	c.stats.Misses += int64(len(miss.pages))
	if hitPages > 0 {
		p.Wait(sim.DurationFor(hitPages*ps, dramBytesPerSec))
	}

	// Fetch the misses channel-parallel, then make them resident (unless
	// invalidated while the fetch was in flight).
	err := miss.run(p)
	for _, pg := range miss.pages {
		c.landed(pg.lpn, err)
	}
	return err
}

// landed ends lpn's fetch with its batch's outcome, making the page resident
// when the fetch succeeded and nothing changed it meanwhile.
func (c *readCache) landed(lpn int64, err error) bool {
	w := c.page[lpn]
	c.page[lpn] = w &^ (fetchBit | staleBit)
	c.landing.Broadcast()
	if err != nil || w&staleBit != 0 || c.s.dev.PoweredOff() {
		return false
	}
	c.insert(lpn)
	return true
}

// Prefetch path -----------------------------------------------------------------

// prefetch accepts up to count pages starting at lpn, spawning one
// background fill per readAheadPages-sized run while window slots remain.
// Pages already cached or in flight are consumed without spawning (they are
// warm; the caller's read-ahead cursor must advance past them). Returns the
// number of pages consumed; 0 applies backpressure.
func (c *readCache) prefetch(p *sim.Proc, lpn, count int64) int64 {
	accepted := int64(0)
	for accepted < count && c.inflight < fillWindow {
		run := min(readAheadPages, count-accepted)
		base := lpn + accepted
		fill := c.fills[len(c.fills)-1]
		for l := base; l < base+run; l++ {
			if c.page[l] == 0 { // neither cached nor in flight
				fill = append(fill, l)
			}
		}
		accepted += run
		if len(fill) == 0 {
			continue // whole run already warm: no slot consumed
		}
		c.fills = c.fills[:len(c.fills)-1]
		for _, l := range fill {
			c.page[l] = fetchBit
		}
		c.inflight++
		c.stats.PrefetchRuns++
		c.seq++
		p.Go(fmt.Sprintf("%s/ra%d", c.s.cfg.Name, c.seq), func(fp *sim.Proc) { c.fill(fp, fill) })
	}
	return accepted
}

// fill is one background read-ahead run: pay the driver latency, fetch the
// pages channel-parallel, make resident whatever is still valid. Every page
// lands in the one scratch page: the FTL verifies it as it lands, and the
// cache keeps no bytes. Errors are swallowed — a prefetch is a hint; the
// demand path will surface them.
func (c *readCache) fill(p *sim.Proc, lpns []int64) {
	start := p.Now()
	defer func() {
		c.inflight--
		c.fills = append(c.fills, lpns[:0])
		if c.s.raBusy != nil {
			c.s.raBusy.Add(start, p.Now().Sub(start))
		}
	}()
	defer c.s.cfg.Obs.Begin(p, "isps", "readahead").End()
	p.Wait(ispsDriverLatency)
	run := c.s.newBatch()
	defer run.release()
	for _, l := range lpns {
		run.pages = append(run.pages, pageRead{l, c.scratch})
	}
	err := run.run(p)
	for _, l := range lpns {
		if c.landed(l, err) {
			c.stats.PrefetchPages++
		} else {
			c.stats.StaleFills++
		}
	}
}

// Stats returns a counter snapshot including current occupancy.
func (c *readCache) Stats() ReadCacheStats {
	st := c.stats
	st.CachedPages = c.resident()
	return st
}
