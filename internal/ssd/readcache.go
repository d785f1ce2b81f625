package ssd

import (
	"fmt"
	"time"

	"compstor/internal/flash"
	"compstor/internal/sim"
)

// The streaming in-device read pipeline (Config.ReadPipeline): an ISPS-DRAM
// page cache in front of the FTL plus a sequential read-ahead prefetcher.
// The cache is carved out of the subsystem's 8 GB DDR4 budget
// (isps.Subsystem.ReserveDRAM). Off by default: the stock path reproduces
// the paper's synchronous read loop and its calibrated end-to-end
// throughputs exactly; on is the "what if CompStor pipelined I/O with
// compute" configuration measured by `compstor-bench -run pipeline`.
//
// The pipeline only exists on the dedicated flash path of an in-situ drive
// (the ISPS has no DRAM on conventional drives, and the NVMe-path ablation
// deliberately strips the fast path), so ReadPipeline is ignored elsewhere.
//
// Its sizes are model constants; no experiment varies them.
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
	Invalidations int64 // cached pages dropped by write/TRIM/remount
	PrefetchRuns  int64 // background fill processes spawned
	PrefetchPages int64 // pages fetched by background fills
	StaleFills    int64 // fills discarded because the page changed mid-flight
	CachedPages   int64 // current occupancy
}

// cacheEntry is one cached page and its position in the LRU list.
type cacheEntry struct {
	lpn        int64
	data       []byte
	prev, next *cacheEntry
}

// fetchState tracks one page's in-flight fill. Invalidation cannot remove
// an in-flight fill, so it marks the state stale and the fill discards its
// result; demand readers poll until the state is cleared.
type fetchState struct {
	stale bool
}

// readCache is the ISPS-DRAM page cache plus prefetch machinery. Like
// every structure in the simulation it is single-threaded under the
// cooperative engine: all mutation happens from sim procs, never
// concurrently, so ordinary maps and counters are safe and deterministic.
type readCache struct {
	s *SSD

	entries    map[int64]*cacheEntry
	head, tail *cacheEntry // head = most recently used

	fetching map[int64]*fetchState
	inflight int   // running background fills
	seq      int64 // fill proc naming counter

	stats ReadCacheStats
}

// LRU plumbing -----------------------------------------------------------------

func (c *readCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *readCache) pushFront(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// get returns a cached page and refreshes its recency.
func (c *readCache) get(lpn int64) ([]byte, bool) {
	e, ok := c.entries[lpn]
	if !ok {
		return nil, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.data, true
}

// insert adds (or refreshes) a page, evicting from the LRU tail on
// overflow. The cache owns data; callers must not retain or mutate it.
func (c *readCache) insert(lpn int64, data []byte) {
	if e, ok := c.entries[lpn]; ok {
		e.data = data
		c.unlink(e)
		c.pushFront(e)
		return
	}
	for int64(len(c.entries)) >= cachePages {
		victim := c.tail
		if victim == nil {
			break
		}
		c.unlink(victim)
		delete(c.entries, victim.lpn)
		c.stats.Evictions++
	}
	e := &cacheEntry{lpn: lpn, data: data}
	c.entries[lpn] = e
	c.pushFront(e)
}

// Invalidation ------------------------------------------------------------------

// invalidate drops count pages starting at lpn: cached copies are removed
// and in-flight fills are marked stale so they discard their result. Every
// path that changes logical content (host NVMe write/TRIM, ISPS-path
// write/TRIM) calls this *after* the FTL operation completes, so a
// concurrent fill either reads the new mapping, is marked stale mid-flight,
// or had its inserted copy removed here — never a stale serve.
func (c *readCache) invalidate(lpn, count int64) {
	for i := int64(0); i < count; i++ {
		if e, ok := c.entries[lpn+i]; ok {
			c.unlink(e)
			delete(c.entries, lpn+i)
			c.stats.Invalidations++
		}
		if st, ok := c.fetching[lpn+i]; ok {
			st.stale = true
		}
	}
}

// dropAll empties the cache wholesale — ISPS DRAM does not survive a power
// cut, so Remount calls this before serving any post-recovery read.
func (c *readCache) dropAll() {
	c.stats.Invalidations += int64(len(c.entries))
	c.entries = make(map[int64]*cacheEntry)
	c.head, c.tail = nil, nil
	for _, st := range c.fetching {
		st.stale = true
	}
}

// Demand path -------------------------------------------------------------------

// readPages is the demand read into out (count pages): driver latency, then
// per page either an ISPS-DRAM copy (hit), a poll-wait on an in-flight fill,
// or a flash fetch (miss, fanned out channel-parallel and inserted
// read-through).
func (c *readCache) readPages(p *sim.Proc, lpn, count int64, out []byte) error {
	p.Wait(ispsDriverLatency)
	if c.s.dev.PoweredOff() {
		// A powered-off device serves nothing — the DRAM cache least of all.
		return flash.ErrPowerLoss
	}
	ps := int64(c.s.PageSize())

	// Wait out in-flight fills covering the request, then classify pages.
	// The poll interval matches the write-back flusher's (5 µs). A miss is
	// registered the moment it is classified: this reader may wait again
	// before it fetches (the next page's poll, the hit copy), and whoever took
	// the page for unclaimed meanwhile would clear this registration.
	miss := c.s.newBatch()
	defer miss.release()
	hitPages := int64(0)
	for i := int64(0); i < count; i++ {
		for c.fetching[lpn+i] != nil {
			p.Wait(5 * time.Microsecond)
		}
		if data, ok := c.get(lpn + i); ok {
			copy(out[i*ps:], data)
			hitPages++
		} else {
			c.fetching[lpn+i] = &fetchState{}
			miss.pages = append(miss.pages, pageRead{lpn + i, out[i*ps : (i+1)*ps]})
		}
	}
	c.stats.Hits += hitPages
	c.stats.Misses += int64(len(miss.pages))
	if hitPages > 0 {
		p.Wait(sim.DurationFor(hitPages*ps, dramBytesPerSec))
	}

	// Fetch the misses channel-parallel, then insert read-through (unless
	// invalidated while the fetch was in flight).
	err := miss.run(p)
	for _, pg := range miss.pages {
		st := c.fetching[pg.lpn]
		delete(c.fetching, pg.lpn)
		if err != nil || st.stale || c.s.dev.PoweredOff() {
			continue
		}
		// out is the caller's; the cache keeps a copy of its own.
		c.insert(pg.lpn, append([]byte(nil), pg.dst...))
	}
	return err
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
		run := int64(readAheadPages)
		if rem := count - accepted; run > rem {
			run = rem
		}
		base := lpn + accepted
		var fill []int64
		for i := int64(0); i < run; i++ {
			if _, ok := c.entries[base+i]; ok {
				continue
			}
			if _, ok := c.fetching[base+i]; ok {
				continue
			}
			fill = append(fill, base+i)
		}
		accepted += run
		if len(fill) == 0 {
			continue // whole run already warm: no slot consumed
		}
		for _, l := range fill {
			c.fetching[l] = &fetchState{}
		}
		c.inflight++
		c.stats.PrefetchRuns++
		c.seq++
		obsCtx := p.ObsCtx()
		c.s.eng.Go(fmt.Sprintf("%s/ra%d", c.s.cfg.Name, c.seq), func(fp *sim.Proc) {
			fp.SetObsCtx(obsCtx)
			c.fill(fp, fill)
		})
	}
	return accepted
}

// fill is one background read-ahead run: pay the driver latency, fetch the
// pages channel-parallel, insert whatever is still valid. Errors are
// swallowed — a prefetch is a hint; the demand path will surface them.
func (c *readCache) fill(p *sim.Proc, lpns []int64) {
	start := p.Now()
	defer func() {
		c.inflight--
		if c.s.raBusy != nil {
			c.s.raBusy.Add(start, p.Now().Sub(start))
		}
	}()
	if c.s.cfg.Obs != nil {
		sp := c.s.cfg.Obs.Begin(p, "isps", "readahead")
		defer sp.End()
	}
	p.Wait(ispsDriverLatency)
	ps := c.s.PageSize()
	run := c.s.newBatch()
	defer run.release()
	for _, l := range lpns {
		run.pages = append(run.pages, pageRead{l, make([]byte, ps)}) // the very page the cache will own
	}
	err := run.run(p)
	for _, pg := range run.pages {
		st := c.fetching[pg.lpn]
		delete(c.fetching, pg.lpn)
		if err != nil || st.stale || c.s.dev.PoweredOff() {
			c.stats.StaleFills++
			continue
		}
		c.insert(pg.lpn, pg.dst)
		c.stats.PrefetchPages++
	}
}

// Stats returns a counter snapshot including current occupancy.
func (c *readCache) Stats() ReadCacheStats {
	st := c.stats
	st.CachedPages = int64(len(c.entries))
	return st
}
