package ftl

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"compstor/internal/flash"
	"compstor/internal/obs"
	"compstor/internal/sim"
)

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// reuseGeo is tortureGeo with a page size no other test here uses, so the
// spare-slab list for its slab length holds only what TestReuseIsInvisible
// releases.
func reuseGeo() flash.Geometry {
	g := tortureGeo()
	g.PageSize = 320
	return g
}

// sinkSlabs builds a reuseGeo device and touches every block, taking up to
// one device's worth of released slabs off the spare list and keeping them.
func sinkSlabs() {
	geo := reuseGeo()
	dev := flash.NewDevice(sim.NewEngine(), "sink", geo, flash.DefaultTiming())
	for blk := int64(0); blk < geo.Blocks(); blk++ {
		dev.InjectRaw(geo.AddrOfBlock(blk), nil, flash.OOB{})
	}
}

// reuseScenario writes and overwrites (with TRIMs) until GC has run, reads
// every logical page, cuts power in the middle of a write burst, recovers,
// reads every page again and finally lists every physical page as the media
// holds it. The log it returns is everything a caller could observe.
func reuseScenario(t *testing.T) string {
	t.Helper()
	geo, cfg := reuseGeo(), tortureCfg()
	eng := sim.NewEngine()
	dev := flash.NewDevice(eng, "nand", geo, flash.DefaultTiming())
	f := New(dev, cfg)
	var log strings.Builder
	readAll := func(p *sim.Proc, f *FTL) {
		for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
			got, err := f.ReadPage(p, lpn)
			fmt.Fprintf(&log, "lpn %d %08x %v\n", lpn, crc32.ChecksumIEEE(got), err)
		}
	}
	eng.Go("writer", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(47))
		data := make([]byte, geo.PageSize)
		for i := 0; f.Stats().GCRuns < 4; i++ {
			lpn := rng.Int63n(f.LogicalPages())
			for j := range data {
				data[j] = byte(int(lpn)*31 + i*7 + j)
			}
			if err := f.WritePage(p, lpn, data); err != nil {
				t.Error(err)
				return
			}
			if i%29 == 0 {
				if err := f.Trim(p, lpn, 3); err != nil {
					t.Error(err)
					return
				}
			}
		}
		readAll(p, f)
		eng.At(p.Now().Add(1500*time.Microsecond), dev.PowerOff)
		for lpn := int64(0); f.WritePage(p, lpn, data) == nil; lpn++ {
		}
	})
	eng.Run()
	dev.PowerOn()
	rec, rs := recoverFTL(t, eng, dev, cfg)
	fmt.Fprintf(&log, "%+v\n%+v\n%+v\n", f.Stats(), rs, dev.Stats())
	eng.Go("reader", func(p *sim.Proc) { readAll(p, rec) })
	fmt.Fprintf(&log, "end %v\n%+v\n%+v\n", eng.Run(), rec.Stats(), dev.Stats())
	buf := make([]byte, geo.PageSize)
	for pg := int64(0); pg < geo.Pages(); pg++ {
		clear(buf)
		oob, ok := dev.PeekInto(geo.AddrOfPage(pg), buf)
		fmt.Fprintf(&log, "ppn %d %v %+v %08x\n", pg, ok, oob, crc32.ChecksumIEEE(buf))
	}
	return log.String()
}

// A drive built on storage a released drive left full of junk — 0xA5 in
// every payload, journal sequences far above any the scenario reaches in
// every map row — behaves exactly as one built with the spare lists empty:
// the same reads, stats, end time and media, through GC, a power cut and
// recovery. It fails if a reused map chunk keeps its rows' seq, or if a read
// reaches a page whose stored bit is clear.
func TestReuseIsInvisible(t *testing.T) {
	sinkSlabs()
	spareChunks.Lock()
	spareChunks.l = nil
	spareChunks.Unlock()
	fresh := reuseScenario(t)

	geo := reuseGeo()
	junkDev := flash.NewDevice(sim.NewEngine(), "junk", geo, flash.DefaultTiming())
	junk := New(junkDev, tortureCfg())
	a5 := bytes.Repeat([]byte{0xA5}, geo.PageSize)
	for pg := int64(0); pg < geo.Pages(); pg++ {
		junkDev.InjectRaw(geo.AddrOfPage(pg), a5, flash.OOB{LPN: 3, Seq: 1 << 40, CRC: 7})
	}
	for lpn := int64(0); lpn < junk.LogicalPages(); lpn++ {
		*junk.l2p.row(lpn) = mapEntry{ppn: lpn % 5, seq: 1<<40 + uint64(lpn)}
	}
	junk.Release()
	junkDev.Release()
	reused := reuseScenario(t)
	sinkSlabs() // leave no junk for the next run of this test

	if reused != fresh {
		a, b := strings.Split(fresh, "\n"), strings.Split(reused, "\n")
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("line %d: built on released junk %q, on fresh storage %q", i, b[min(i, len(b)-1)], a[i])
			}
		}
		t.Fatalf("built on released junk: %d lines, on fresh storage %d", len(b), len(a))
	}
}

// A released FTL keeps its stats, and every entry point that reaches the map
// panics.
func TestReleasedFTLPanicsOnMapAccess(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	buf := fill(f, 1)
	run(t, eng, func(p *sim.Proc) error {
		if err := f.WritePage(p, 3, buf); err != nil {
			return err
		}
		f.Release()
		if st := f.Stats(); st.HostWrites != 1 {
			t.Errorf("stats after Release: %+v, want the one write", st)
		}
		var op ReadOp
		op.Init(func(error) {})
		for _, c := range []struct {
			name   string
			access func()
		}{
			{"ReadPageInto", func() { f.ReadPageInto(p, 3, buf) }},
			{"StartRead", func() { f.StartRead(&op, 3, buf, obs.Ctx{}) }},
			{"PeekPageInto", func() { f.PeekPageInto(3, buf) }},
			{"WritePage", func() { f.WritePage(p, 4, buf) }},
			{"Trim", func() { f.Trim(p, 3, 1) }},
			{"Checkpoint", func() { f.Checkpoint(p) }},
		} {
			if !panics(c.access) {
				t.Errorf("%s on a released FTL did not panic", c.name)
			}
		}
		return nil
	})
}

// An FTL built after another's Release takes the released map chunks
// instead of allocating its own.
func TestReleasedMapChunksAreReused(t *testing.T) {
	eng := sim.NewEngine()
	chunks := func(f *FTL) map[*[mapChunkLen]mapEntry]bool {
		out := map[*[mapChunkLen]mapEntry]bool{}
		for _, c := range f.l2p.chunks {
			if c != nil {
				out[c] = true
			}
		}
		return out
	}
	touch := func(f *FTL) {
		for lpn := int64(0); lpn < f.LogicalPages(); lpn += mapChunkLen / 2 {
			f.l2p.row(lpn)
		}
	}
	old := newTestFTL(eng, DefaultConfig())
	touch(old)
	released := chunks(old)
	old.Release()
	next := newTestFTL(eng, DefaultConfig())
	touch(next)
	taken := chunks(next)
	if len(taken) != len(released) {
		t.Fatalf("second FTL holds %d chunks, the first released %d", len(taken), len(released))
	}
	for c := range taken {
		if !released[c] {
			t.Errorf("second FTL allocated a chunk while %d released ones were spare", len(released))
			break
		}
	}
}

// FTLs built, filled and released on two goroutines at once see every reused
// row reset; the race job checks the chunk hand-off itself.
func TestMapChunksHandOffAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				f := newTestFTL(sim.NewEngine(), DefaultConfig())
				for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
					e := f.l2p.row(lpn)
					if *e != (mapEntry{ppn: -1}) {
						t.Errorf("a fresh row reads %+v", *e)
						return
					}
					*e = mapEntry{ppn: lpn, seq: 9}
				}
				f.Release()
			}
		}()
	}
	wg.Wait()
}
