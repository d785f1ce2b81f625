package ssd

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"compstor/internal/flash"
	"compstor/internal/ftl"
	"compstor/internal/sim"
)

// The copying read cache the shared one replaced, kept as the oracle
// TestSharedCacheMatchesCopyingCache holds it to: each entry owns a copy of
// its page, taken when the page was fetched. Apart from capacity being a
// field, it is the cache as it stood.

// copyEntry is one cached page and its position in the LRU list.
type copyEntry struct {
	lpn        int64
	data       []byte
	prev, next *copyEntry
}

// copyFetch tracks one page's in-flight fill. Invalidation cannot remove
// an in-flight fill, so it marks the state stale and the fill discards its
// result; demand readers poll until the state is cleared.
type copyFetch struct {
	stale bool
}

func newCopyCache(s *SSD, capacity int) *copyCache {
	return &copyCache{s: s, capacity: capacity, entries: map[int64]*copyEntry{}, fetching: map[int64]*copyFetch{}}
}

// copyCache is the ISPS-DRAM page cache plus prefetch machinery. Like
// every structure in the simulation it is single-threaded under the
// cooperative engine: all mutation happens from sim procs, never
// concurrently, so ordinary maps and counters are safe and deterministic.
type copyCache struct {
	s        *SSD
	capacity int

	entries    map[int64]*copyEntry
	head, tail *copyEntry // head = most recently used

	fetching map[int64]*copyFetch
	inflight int   // running background fills
	seq      int64 // fill proc naming counter

	stats ReadCacheStats
}

// LRU plumbing -----------------------------------------------------------------

func (c *copyCache) unlink(e *copyEntry) {
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

func (c *copyCache) pushFront(e *copyEntry) {
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
func (c *copyCache) get(lpn int64) ([]byte, bool) {
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
func (c *copyCache) insert(lpn int64, data []byte) {
	if e, ok := c.entries[lpn]; ok {
		e.data = data
		c.unlink(e)
		c.pushFront(e)
		return
	}
	for len(c.entries) >= c.capacity {
		victim := c.tail
		if victim == nil {
			break
		}
		c.unlink(victim)
		delete(c.entries, victim.lpn)
		c.stats.Evictions++
	}
	e := &copyEntry{lpn: lpn, data: data}
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
func (c *copyCache) invalidate(lpn, count int64) {
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
func (c *copyCache) dropAll() {
	c.stats.Invalidations += int64(len(c.entries))
	c.entries = make(map[int64]*copyEntry)
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
func (c *copyCache) readPages(p *sim.Proc, lpn, count int64, out []byte) error {
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
			c.fetching[lpn+i] = &copyFetch{}
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
func (c *copyCache) prefetch(p *sim.Proc, lpn, count int64) int64 {
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
			c.fetching[l] = &copyFetch{}
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
func (c *copyCache) fill(p *sim.Proc, lpns []int64) {
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
func (c *copyCache) Stats() ReadCacheStats {
	st := c.stats
	st.CachedPages = int64(len(c.entries))
	return st
}

// cacheOp is one step of a differential script.
type cacheOp struct {
	kind   int // one of the op* constants
	lpn, n int64
	b      byte
}

const (
	opRead = iota
	opPrefetch
	opWriteISPS
	opWriteHost
	opTrimISPS
	opTrimHost
	opWait
	opChurn          // overwrite the churn region until GC relocates and erases
	opRemount        // power cut, then recovery
	opCorrupt        // damage a cached page's flash copy behind the cache's back
	opTrimWide       // an ISPS TRIM wider than the small cache's capacity
	opTrimFilling    // read-ahead, then at once a TRIM over the pages it is fetching
	opRemountFilling // read-ahead, then at once a power cut and recovery
	opKinds
)

// diffSpan is the logical range the script reads, writes and trims; GC
// churn writes above it. smallCache is the capacity of half the sweep's
// caches: less than diffSpan, so the LRU evicts.
const (
	diffSpan   = 64
	smallCache = 48
)

// cacheScript draws a script from seed: mostly reads, read-ahead and small
// writes into diffSpan, with the rare churn burst, remount or corruption,
// wide TRIM, or TRIM or remount under fills in flight.
func cacheScript(seed int64) []cacheOp {
	rng := rand.New(rand.NewSource(seed))
	weights := [opKinds]int{opRead: 30, opPrefetch: 10, opWriteISPS: 8, opWriteHost: 6, opTrimISPS: 3, opTrimHost: 3, opWait: 8, opChurn: 1, opRemount: 1, opCorrupt: 2,
		opTrimWide: 2, opTrimFilling: 3, opRemountFilling: 1}
	total := 0
	for _, w := range weights {
		total += w
	}
	var ops []cacheOp
	for range 160 {
		k, r := 0, rng.Intn(total)
		for ; r >= weights[k]; k++ {
			r -= weights[k]
		}
		op := cacheOp{kind: k, lpn: rng.Int63n(diffSpan), b: byte(rng.Intn(255) + 1)}
		switch k {
		case opRead:
			op.n = 1 + rng.Int63n(16)
		case opPrefetch:
			op.n = 1 + rng.Int63n(128)
		case opWait:
			op.n = rng.Int63n(300)
		case opTrimWide:
			op.lpn = rng.Int63n(diffSpan - smallCache)
			op.n = diffSpan - op.lpn
		case opTrimFilling, opRemountFilling:
			op.n = 1 + rng.Int63n(2*readAheadPages)
		default:
			op.n = 1 + rng.Int63n(8)
		}
		op.n = min(op.n, diffSpan-op.lpn)
		ops = append(ops, op)
	}
	return ops
}

// cacheRun is what one drive made of a script.
type cacheRun struct {
	reads    []string // per read: the bytes' checksum or the error
	corrupt  []error  // per corruption: the outcome of re-reading the page
	stats    ReadCacheStats
	gcWrites int64
}

// runCacheScript plays ops on a fresh pipelined drive whose cache is the
// shared one, or the copying oracle; capacity shrinks either so that the
// script's span does not fit. Every read is also held to a model of what was
// written: neither cache may ever serve stale bytes.
func runCacheScript(t *testing.T, ops []cacheOp, oracle bool, capacity int) cacheRun {
	eng, drive, bd := newPipelineRigGeo(t, flash.Geometry{
		Channels: 4, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerPlan: 16, PagesPerBlock: 16, PageSize: 4096,
	})
	if oracle {
		drive.cache = newCopyCache(drive, capacity)
	} else {
		c := drive.cache.(*readCache)
		c.slots = c.slots[:capacity+1] // and the sentinel
		c.empty()
	}
	ps := int64(drive.PageSize())
	model := make([]byte, diffSpan) // each page is one repeated byte; 0 = never written or trimmed
	var run cacheRun
	eng.Go("script", func(p *sim.Proc) {
		read := func(lpn, n int64) ([]byte, error) {
			out := make([]byte, n*ps)
			err := bd.ReadPagesInto(p, lpn, out)
			return out, err
		}
		check := func(lpn int64, got []byte) {
			for i := range int64(len(got)) / ps {
				if want := pagePattern(model[lpn+i], int(ps)); !bytes.Equal(got[i*ps:(i+1)*ps], want) {
					t.Errorf("oracle=%v: lpn %d served stale bytes (want %#x)", oracle, lpn+i, model[lpn+i])
				}
			}
		}
		write := func(lpn, n int64, b byte, host bool) error {
			data := bytes.Repeat(pagePattern(b, int(ps)), int(n))
			if host {
				return drive.Write(p, lpn, data)
			}
			return bd.WritePages(p, lpn, data)
		}
		for i, op := range ops {
			var err error
			switch op.kind {
			case opRead:
				var got []byte
				if got, err = read(op.lpn, op.n); err == nil {
					check(op.lpn, got)
					run.reads = append(run.reads, fmt.Sprintf("%d+%d %08x", op.lpn, op.n, crc32.ChecksumIEEE(got)))
				} else {
					run.reads = append(run.reads, fmt.Sprintf("%d+%d %v", op.lpn, op.n, err))
				}
			case opPrefetch:
				bd.Prefetch(p, op.lpn, op.n)
			case opWriteISPS, opWriteHost:
				if err = write(op.lpn, op.n, op.b, op.kind == opWriteHost); err == nil {
					for l := op.lpn; l < op.lpn+op.n; l++ {
						model[l] = op.b
					}
				}
			case opTrimFilling:
				// The fill fetches from the first page read-ahead accepts, so
				// the TRIM overlaps it from there; half of them on each path.
				bd.Prefetch(p, op.lpn, op.n)
				op.kind = opTrimISPS + int(op.b%2)*(opTrimHost-opTrimISPS)
				fallthrough
			case opTrimISPS, opTrimHost, opTrimWide:
				if op.kind == opTrimHost {
					err = drive.Trim(p, op.lpn, op.n)
				} else {
					err = bd.TrimPages(p, op.lpn, op.n)
				}
				if err == nil {
					clear(model[op.lpn : op.lpn+op.n])
				}
			case opWait:
				p.Wait(time.Duration(op.n) * time.Microsecond)
			case opChurn:
				logical := drive.FTL().LogicalPages()
				for j := int64(0); j < drive.Flash().Geometry().Pages() && err == nil; j += 4 {
					err = write(diffSpan+j%(logical-diffSpan-4), 4, op.b, false)
				}
			case opRemount, opRemountFilling:
				if op.kind == opRemount {
					p.Wait(time.Millisecond) // let read-ahead land first
				} else {
					bd.Prefetch(p, op.lpn, op.n) // the cut lands mid-fill
				}
				drive.Flash().PowerOff()
				_, err = drive.Remount(p)
			case opCorrupt:
				p.Wait(time.Millisecond)
				if _, err = read(op.lpn, 1); err != nil { // resident in both caches now
					break
				}
				geo, damaged := drive.Flash().Geometry(), false
				for ppn := range geo.Pages() {
					if oob, ok := drive.Flash().PeekInto(geo.AddrOfPage(ppn), nil); ok && oob.LPN == op.lpn {
						damaged = drive.Flash().CorruptPage(geo.AddrOfPage(ppn)) || damaged
					}
				}
				if damaged && model[op.lpn] != 0 { // a trimmed page's old copies are not its content
					got, rerr := read(op.lpn, 1)
					if rerr == nil {
						check(op.lpn, got)
					}
					run.corrupt = append(run.corrupt, rerr)
				}
				// Rewrite the page so both caches agree again.
				if err = write(op.lpn, 1, op.b, false); err == nil {
					model[op.lpn] = op.b
				}
			}
			if err != nil {
				t.Errorf("oracle=%v: op %d %+v: %v", oracle, i, op, err)
				return
			}
		}
		p.Wait(time.Millisecond)
	})
	eng.Run()
	run.stats, _ = drive.ReadCacheStats()
	run.gcWrites = drive.FTL().Stats().GCWrites
	return run
}

// TestSharedCacheMatchesCopyingCache holds the shared cache to the copying
// one it replaced, over seed-swept scripts of reads, read-ahead, host and
// ISPS writes and TRIMs, GC churn (relocation and erase-and-reuse under
// cached pages), remounts and corruption. Both must return the same bytes
// and errors, with the same counters, everywhere except the one declared
// divergence: a page corrupted on flash after it was cached is a hit in the
// copying cache (its old copy) and, in the shared one, a miss that ends in
// ftl.ErrCorrupt — never stale bytes.
func TestSharedCacheMatchesCopyingCache(t *testing.T) {
	var gc, evictions, stale, corruptions int64
	for seed := int64(1); seed <= 24; seed++ {
		capacity := cachePages
		if seed%2 == 0 {
			capacity = smallCache
		}
		ops := cacheScript(seed)
		want := runCacheScript(t, ops, true, capacity)
		got := runCacheScript(t, ops, false, capacity)
		if !reflect.DeepEqual(got.reads, want.reads) {
			t.Errorf("seed %d: reads differ\n shared %v\n oracle %v", seed, got.reads, want.reads)
		}
		k := int64(len(want.corrupt))
		for i := range want.corrupt {
			if want.corrupt[i] != nil || !errors.Is(got.corrupt[i], ftl.ErrCorrupt) {
				t.Errorf("seed %d corruption %d: shared %v, oracle %v; want ErrCorrupt and the cached copy",
					seed, i, got.corrupt[i], want.corrupt[i])
			}
		}
		adj := want.stats
		adj.Hits -= k
		adj.Misses += k
		if got.stats != adj {
			t.Errorf("seed %d: stats\n shared %+v\n oracle %+v (less %d corrupted hits)", seed, got.stats, want.stats, k)
		}
		gc += got.gcWrites
		evictions += got.stats.Evictions
		stale += got.stats.StaleFills
		corruptions += k
	}
	t.Logf("sweep: %d GC writes, %d evictions, %d stale fills, %d corruptions", gc, evictions, stale, corruptions)
	if gc == 0 || evictions == 0 || stale == 0 || corruptions == 0 {
		t.Fatalf("sweep is vacuous: %d GC writes, %d evictions, %d stale fills, %d corruptions", gc, evictions, stale, corruptions)
	}
}
