package ssd

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"compstor/internal/apps/appset"
	"compstor/internal/flash"
	"compstor/internal/isps"
	"compstor/internal/pcie"
	"compstor/internal/sim"
)

// newPipelineRig builds an in-situ drive with the read pipeline enabled,
// returning the raw ISPS block device so tests can drive the cache at page
// granularity (below the minfs write-back cache).
func newPipelineRig(t testing.TB) (*sim.Engine, *SSD, *ispsBlockDevice) {
	return newPipelineRigGeo(t, smallGeometry())
}

func newPipelineRigGeo(t testing.TB, geo flash.Geometry) (*sim.Engine, *SSD, *ispsBlockDevice) {
	t.Helper()
	eng := sim.NewEngine()
	fabric := pcie.NewFabric(eng)
	c := CompStorConfig("cs0", appset.Base())
	c.Geometry = geo
	drive := New(eng, fabric.AddPort(), c)
	return eng, drive, drive.ispsBlockDevice().(*ispsBlockDevice)
}

func pagePattern(b byte, ps int) []byte { return bytes.Repeat([]byte{b}, ps) }

// TestPipelineCacheHitsOnReread: a demand read populates the cache, a
// re-read is served from ISPS DRAM (hits counted, same bytes, less time).
func TestPipelineCacheHitsOnReread(t *testing.T) {
	eng, drive, bd := newPipelineRig(t)
	ps := drive.PageSize()
	payload := bytes.Repeat(pagePattern(0x5A, ps), 8)
	eng.Go("t", func(p *sim.Proc) {
		if err := bd.WritePages(p, 0, payload); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		start := p.Now()
		cold, err := bd.ReadPages(p, 0, 8)
		coldTime := p.Now().Sub(start)
		if err != nil || !bytes.Equal(cold, payload) {
			t.Errorf("cold read: %v", err)
			return
		}
		start = p.Now()
		warm, err := bd.ReadPages(p, 0, 8)
		warmTime := p.Now().Sub(start)
		if err != nil || !bytes.Equal(warm, payload) {
			t.Errorf("warm read: %v", err)
			return
		}
		if warmTime >= coldTime {
			t.Errorf("warm read (%v) not faster than cold (%v)", warmTime, coldTime)
		}
	})
	eng.Run()
	st, ok := drive.ReadCacheStats()
	if !ok {
		t.Fatal("pipeline not enabled")
	}
	if st.Misses != 8 || st.Hits != 8 {
		t.Fatalf("stats %+v, want 8 misses then 8 hits", st)
	}
}

// TestPipelineWriteAfterCachedRead: overwriting a cached page — through the
// ISPS path and through the host NVMe path — must invalidate the cached
// copy so the next read returns the new bytes, never the cached old ones.
func TestPipelineWriteAfterCachedRead(t *testing.T) {
	eng, drive, bd := newPipelineRig(t)
	ps := drive.PageSize()
	eng.Go("t", func(p *sim.Proc) {
		if err := bd.WritePages(p, 0, bytes.Repeat(pagePattern(0x11, ps), 4)); err != nil {
			t.Errorf("seed write: %v", err)
			return
		}
		if _, err := bd.ReadPages(p, 0, 4); err != nil { // warm the cache
			t.Errorf("warm read: %v", err)
			return
		}

		// ISPS-path overwrite of page 1.
		if err := bd.WritePages(p, 1, pagePattern(0x22, ps)); err != nil {
			t.Errorf("isps overwrite: %v", err)
			return
		}
		got, err := bd.ReadPages(p, 1, 1)
		if err != nil || got[0] != 0x22 {
			t.Errorf("read after ISPS overwrite: err=%v byte=%#x, want 0x22", err, got[0])
		}

		// Host NVMe-path overwrite of page 2 (the shared-FS scenario: host
		// rewrites data the ISPS had cached).
		if err := drive.Write(p, 2, pagePattern(0x33, ps)); err != nil {
			t.Errorf("host overwrite: %v", err)
			return
		}
		got, err = bd.ReadPages(p, 2, 1)
		if err != nil || got[0] != 0x33 {
			t.Errorf("read after host overwrite: err=%v byte=%#x, want 0x33", err, got[0])
		}
	})
	eng.Run()
	st, _ := drive.ReadCacheStats()
	if st.Invalidations == 0 {
		t.Fatalf("no invalidations recorded: %+v", st)
	}
}

// TestPipelineTrimUnderPrefetch: invalidation racing an in-flight prefetch
// fill must mark the fill stale so its bytes never land in the cache, and a
// TRIM issued while a prefetch is running must leave post-TRIM reads seeing
// zeroes regardless of how the race resolves.
func TestPipelineTrimUnderPrefetch(t *testing.T) {
	eng, drive, bd := newPipelineRig(t)
	ps := drive.PageSize()
	eng.Go("t", func(p *sim.Proc) {
		if err := bd.WritePages(p, 0, bytes.Repeat(pagePattern(0x77, ps), 16)); err != nil {
			t.Errorf("seed write: %v", err)
			return
		}
		// Phase 1 — the mid-flight window, hit deterministically: Prefetch
		// registers its pages as in-flight before the fill proc first runs,
		// so invalidating before our next Wait is guaranteed to land while
		// the fill is airborne. The fill must discard everything.
		if n := bd.Prefetch(p, 0, 16); n != 16 {
			t.Errorf("prefetch accepted %d/16", n)
			return
		}
		drive.invalidateCache(0, 16)
		p.Wait(flash.DefaultTiming().ReadPage * 100) // fill completes here
		st, _ := drive.ReadCacheStats()
		if st.StaleFills != 16 {
			t.Errorf("StaleFills = %d, want 16 (in-flight fill not discarded)", st.StaleFills)
		}
		if st.CachedPages != 0 {
			t.Errorf("%d pages cached from a stale fill", st.CachedPages)
		}

		// Phase 2 — end-to-end: TRIM issued while a fresh prefetch run is in
		// flight. Whichever side wins the FTL, the post-TRIM read must be
		// zeroes, never the prefetched 0x77s.
		if n := bd.Prefetch(p, 0, 16); n != 16 {
			t.Errorf("second prefetch accepted %d/16", n)
			return
		}
		if err := bd.TrimPages(p, 0, 16); err != nil {
			t.Errorf("trim: %v", err)
			return
		}
		p.Wait(flash.DefaultTiming().ReadPage * 100)
		got, err := bd.ReadPages(p, 0, 16)
		if err != nil {
			t.Errorf("post-trim read: %v", err)
			return
		}
		for i, b := range got {
			if b != 0 {
				t.Errorf("byte %d = %#x after TRIM, stale cache served", i, b)
				return
			}
		}
	})
	eng.Run()
	st, _ := drive.ReadCacheStats()
	if st.PrefetchRuns != 2 {
		t.Fatalf("prefetch runs %d, want 2; test is vacuous: %+v", st.PrefetchRuns, st)
	}
}

// TestPipelineOverlappingReadersOfOnePage: a demand reader that has taken a
// page for a miss may wait again before it fetches — here the DRAM copy of
// the hit beside it — and a second claimant arriving in that gap must find
// the page spoken for. It used to find nothing, fetch the page too and
// overwrite the first registration; whichever finished second dereferenced
// the cleared entry, and the panic took down Engine.Run. Split-scan chunk
// workers read one page past their cut, into the next chunk's first page.
func TestPipelineOverlappingReadersOfOnePage(t *testing.T) {
	claimants := map[string]func(p *sim.Proc, bd *ispsBlockDevice) error{
		"demand reader": func(p *sim.Proc, bd *ispsBlockDevice) error {
			_, err := bd.ReadPages(p, 1, 1)
			return err
		},
		"prefetch run": func(p *sim.Proc, bd *ispsBlockDevice) error {
			p.Wait(ispsDriverLatency) // the instant a reader arriving now would classify
			bd.Prefetch(p, 1, 1)
			return nil
		},
	}
	for name, second := range claimants {
		t.Run(name, func(t *testing.T) {
			eng, drive, bd := newPipelineRig(t)
			ps := drive.PageSize()
			payload := append(pagePattern(0xA0, ps), pagePattern(0xA1, ps)...)
			eng.Go("t", func(p *sim.Proc) {
				if err := bd.WritePages(p, 0, payload); err != nil {
					t.Errorf("seed write: %v", err)
					return
				}
				if _, err := bd.ReadPages(p, 0, 1); err != nil { // warm page 0 only
					t.Errorf("warm read: %v", err)
					return
				}
				eng.Go("first", func(p *sim.Proc) {
					got, err := bd.ReadPages(p, 0, 2) // hit + miss: copies page 0 before fetching page 1
					if err != nil || !bytes.Equal(got, payload) {
						t.Errorf("first reader: wrong bytes (%v)", err)
					}
				})
				eng.Go("second", func(p *sim.Proc) {
					p.Wait(100 * time.Nanosecond) // inside the first reader's 241 ns copy
					if err := second(p, bd); err != nil {
						t.Errorf("second claimant: %v", err)
					}
				})
			})
			eng.Run()
			st, _ := drive.ReadCacheStats()
			if st.Misses != 2 || st.PrefetchRuns != 0 || st.CachedPages != 2 {
				t.Errorf("stats %+v: want each page fetched from flash once, by a demand reader", st)
			}
			if got := drive.Flash().Stats().Reads; got != 2 {
				t.Errorf("%d flash reads, want 2", got)
			}
		})
	}
}

// TestPipelinePowerCutRemountDropsCache: ISPS DRAM does not survive a power
// cut. A warm cache must refuse reads while powered off and come back cold
// after Remount — proven by mutating the media behind the cache's back and
// checking the post-remount read reflects the mutation.
func TestPipelinePowerCutRemountDropsCache(t *testing.T) {
	eng, drive, bd := newPipelineRig(t)
	ps := drive.PageSize()
	eng.Go("t", func(p *sim.Proc) {
		if err := bd.WritePages(p, 0, bytes.Repeat(pagePattern(0x42, ps), 4)); err != nil {
			t.Errorf("seed write: %v", err)
			return
		}
		if err := bd.Sync(p); err != nil {
			t.Errorf("sync: %v", err)
			return
		}
		if _, err := bd.ReadPages(p, 0, 4); err != nil { // warm the cache
			t.Errorf("warm read: %v", err)
			return
		}

		drive.Flash().PowerOff()
		if _, err := bd.ReadPages(p, 0, 1); !errors.Is(err, flash.ErrPowerLoss) {
			t.Errorf("powered-off cached read: %v, want ErrPowerLoss", err)
		}

		if _, err := drive.Remount(p); err != nil {
			t.Errorf("remount: %v", err)
			return
		}
		// Mutate page 0 through the recovered FTL directly — bypassing the
		// invalidation hooks — so only a genuinely dropped cache can return
		// the new bytes.
		if err := drive.FTL().WritePage(p, 0, pagePattern(0x43, ps)); err != nil {
			t.Errorf("post-remount write: %v", err)
			return
		}
		got, err := bd.ReadPages(p, 0, 1)
		if err != nil {
			t.Errorf("post-remount read: %v", err)
			return
		}
		if got[0] != 0x43 {
			t.Errorf("post-remount read byte %#x, want 0x43: remount served a pre-cut cached page", got[0])
		}
	})
	eng.Run()
}

// TestPipelineReservesISPSDRAM: the cache is carved out of the subsystem's
// DRAM budget, so it shows up as used memory.
func TestPipelineReservesISPSDRAM(t *testing.T) {
	_, drive, _ := newPipelineRig(t)
	used := drive.ISPS().Status().MemUsedBytes
	if want := int64(cachePages * drive.PageSize()); used < want {
		t.Fatalf("ISPS MemUsed = %d, want >= %d (cache not budgeted)", used, want)
	}
}

// TestPipelineDeterminism: two identical pipelined runs — background
// prefetch procs included — produce byte-identical output, identical cache
// counters, and the same final virtual time.
func TestPipelineDeterminism(t *testing.T) {
	type outcome struct {
		stdout  string
		finalAt sim.Time
		stats   ReadCacheStats
	}
	run := func() outcome {
		eng := sim.NewEngine()
		fabric := pcie.NewFabric(eng)
		cfg := CompStorConfig("cs0", appset.Base())
		cfg.Geometry = smallGeometry()
		drive := New(eng, fabric.AddPort(), cfg)
		var o outcome
		eng.Go("host", func(p *sim.Proc) {
			hv := drive.HostView()
			content := bytes.Repeat([]byte("some words to grep through, the usual\n"), 4000)
			hv.WriteFile(p, "f", content)
			hv.Flush(p)
			res := drive.ISPS().Spawn(p, isps.TaskSpec{Exec: "grep", Args: []string{"-c", "the", "f"}})
			if res.Err != nil {
				t.Errorf("task: %v", res.Err)
				return
			}
			o.stdout = string(res.Stdout)
		})
		o.finalAt = eng.Run()
		o.stats, _ = drive.ReadCacheStats()
		return o
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different runs:\n a=%+v\n b=%+v", a, b)
	}
	if a.stats.PrefetchRuns == 0 || a.stats.Hits == 0 {
		t.Fatalf("pipeline never engaged; test is vacuous: %+v", a.stats)
	}
}

// TestSerialReadsAblation: the stock in-situ drive reads through the
// pipeline; the serial-read ablation keeps the paper's synchronous read
// path — no cache, no prefetcher advertised to minfs.
func TestSerialReadsAblation(t *testing.T) {
	_, stock := newRig(t, true)
	if _, ok := stock.ReadCacheStats(); !ok {
		t.Fatal("stock CompStor has no read cache")
	}
	_, drive := newSerialRig(t)
	if _, ok := drive.ReadCacheStats(); ok {
		t.Fatal("read cache exists under SerialReads")
	}
	bd := drive.ispsBlockDevice().(*ispsBlockDevice)
	if bd.ReadAheadPages() != 0 {
		t.Fatal("serial-read drive still advertises read-ahead")
	}
}

// TestCacheReadsAllocateNothing: the cache keeps no bytes, and its LRU and
// per-page state were sized with the drive, so neither a steady-state hit, a
// read-through insert nor the invalidation of a 128-page file tail
// allocates.
func TestCacheReadsAllocateNothing(t *testing.T) {
	eng, drive, bd := newPipelineRig(t)
	ps := drive.PageSize()
	eng.Go("isps", func(p *sim.Proc) {
		if err := bd.WritePages(p, 0, bytes.Repeat(pagePattern(3, ps), 64)); err != nil {
			t.Error(err)
			return
		}
		dst := make([]byte, 16*ps)
		lpn := int64(0)
		read := func() {
			if err := bd.ReadPagesInto(p, lpn, dst); err != nil {
				t.Error(err)
			}
		}
		hit := func() { lpn = (lpn + 7) % 48; read() }
		insert := func() { lpn = (lpn + 7) % 48; drive.invalidateCache(lpn, 16); read() }
		for range 8000 { // builds the batch lanes and takes the scheduler round its wheel
			hit()
			insert()
		}
		tail := func() { drive.invalidateCache(1024, 128) }
		for name, fn := range map[string]func(){"hit": hit, "read-through insert": insert, "tail invalidate": tail} {
			before, _ := drive.ReadCacheStats()
			n := testing.AllocsPerRun(100, fn)
			after, _ := drive.ReadCacheStats()
			if hits := after.Hits - before.Hits; (name == "hit") != (hits == 101*16) {
				t.Errorf("%s: %d hits in 101 reads of 16 pages", name, hits)
			}
			if n != 0 {
				t.Errorf("%s: %v allocs/op, want none", name, n)
			}
		}
	})
	eng.Run()
}

// BenchmarkInvalidateTail times what a file's Close costs the read cache
// when minfs trims the unused tail of its preallocated extent (releaseTail):
// 253 pages (256 preallocated, a 3-page output) that the cache does not
// hold, on a cache with 4,096 resident pages.
func BenchmarkInvalidateTail(b *testing.B) {
	eng, drive, bd := newPipelineRig(b)
	ps := drive.PageSize()
	eng.Go("warm", func(p *sim.Proc) {
		if err := bd.WritePages(p, 0, make([]byte, 4096*ps)); err != nil {
			b.Error(err)
		} else if err := bd.ReadPagesInto(p, 0, make([]byte, 4096*ps)); err != nil {
			b.Error(err)
		}
	})
	eng.Run()
	if st, _ := drive.ReadCacheStats(); st.CachedPages != 4096 {
		b.Fatalf("%d pages resident, want 4096", st.CachedPages)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		drive.invalidateCache(4096+int64(i%16)*256, 253)
	}
}

// A demand reader of a page whose fill is in flight resumes the instant the
// fill lands: its read ends one DRAM copy after the moment a cold read of
// the same page, started with the fill, would have ended.
func TestPipelineReaderWakesWhenFillLands(t *testing.T) {
	eng, drive, bd := newPipelineRig(t)
	ps := drive.PageSize()
	var cold, waited sim.Duration
	eng.Go("t", func(p *sim.Proc) {
		if err := bd.WritePages(p, 0, bytes.Repeat(pagePattern(0x5A, ps), 4)); err != nil {
			t.Errorf("seed write: %v", err)
			return
		}
		p.Wait(time.Millisecond)
		start := p.Now()
		if _, err := bd.ReadPages(p, 2, 1); err != nil { // a cold read, nothing else running
			t.Errorf("cold read: %v", err)
			return
		}
		cold = p.Now().Sub(start)
		p.Wait(time.Millisecond)
		start = p.Now()
		bd.Prefetch(p, 1, 1)
		p.Wait(time.Microsecond) // the reader classifies the page while the fill is in flight
		if _, err := bd.ReadPages(p, 1, 1); err != nil {
			t.Errorf("waiting read: %v", err)
			return
		}
		waited = p.Now().Sub(start)
	})
	eng.Run()
	if st, _ := drive.ReadCacheStats(); st.Hits != 1 || st.PrefetchPages != 1 {
		t.Fatalf("stats %+v: want the waiting read served by the fill", st)
	}
	if want := cold + sim.DurationFor(int64(ps), dramBytesPerSec); waited != want {
		t.Fatalf("waiting read took %v from the fill's start, want %v (cold read %v plus one DRAM copy)", waited, want, cold)
	}
}
