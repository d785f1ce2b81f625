package ftl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"compstor/internal/flash"
	"compstor/internal/sim"
)

func smallGeo() flash.Geometry {
	return flash.Geometry{
		Channels:      4,
		DiesPerChan:   1,
		PlanesPerDie:  1,
		BlocksPerPlan: 16,
		PagesPerBlock: 8,
		PageSize:      256,
	}
}

func newTestFTL(eng *sim.Engine, cfg Config) *FTL {
	dev := flash.NewDevice(eng, "nand", smallGeo(), flash.DefaultTiming())
	return New(dev, cfg)
}

func fill(f *FTL, b byte) []byte {
	d := make([]byte, f.PageSize())
	for i := range d {
		d[i] = b
	}
	return d
}

// programsPerChannel counts, from now on, the page programs f issues on each
// channel, through the media fault hook (which fails nothing).
func programsPerChannel(f *FTL) []int {
	n := make([]int, f.dev.Geometry().Channels)
	f.dev.SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
		if op == flash.FaultProgram {
			n[a.Channel]++
		}
		return nil
	})
	return n
}

// run executes body as a simulated process and drives the engine to
// completion, failing the test on error.
func run(t *testing.T, eng *sim.Engine, body func(p *sim.Proc) error) {
	t.Helper()
	var err error
	eng.Go("test", func(p *sim.Proc) { err = body(p) })
	eng.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	run(t, eng, func(p *sim.Proc) error {
		for lpn := int64(0); lpn < 20; lpn++ {
			if err := f.WritePage(p, lpn, fill(f, byte(lpn))); err != nil {
				return err
			}
		}
		for lpn := int64(0); lpn < 20; lpn++ {
			got, err := f.ReadPage(p, lpn)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, fill(f, byte(lpn))) {
				return fmt.Errorf("lpn %d corrupted", lpn)
			}
		}
		return nil
	})
	st := f.Stats()
	if st.HostWrites != 20 || st.HostReads != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnmappedReadsAsZeroes(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	run(t, eng, func(p *sim.Proc) error {
		got, err := f.ReadPage(p, 42)
		if err != nil {
			return err
		}
		for _, b := range got {
			if b != 0 {
				return errors.New("unmapped page not zero")
			}
		}
		return nil
	})
	if f.dev.Stats().Reads != 0 {
		t.Fatal("unmapped read touched the media")
	}
}

func TestOverwriteInvalidatesOldMapping(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	run(t, eng, func(p *sim.Proc) error {
		for i := 0; i < 5; i++ {
			if err := f.WritePage(p, 7, fill(f, byte(i))); err != nil {
				return err
			}
		}
		got, err := f.ReadPage(p, 7)
		if err != nil {
			return err
		}
		if got[0] != 4 {
			return fmt.Errorf("read %d after overwrites, want 4", got[0])
		}
		return nil
	})
	if f.l2p.mapped != 1 {
		t.Fatalf("mapped = %d, want 1", f.l2p.mapped)
	}
}

func TestCapacityEnforced(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	run(t, eng, func(p *sim.Proc) error {
		if err := f.WritePage(p, f.LogicalPages(), fill(f, 1)); !errors.Is(err, ErrCapacity) {
			return fmt.Errorf("out-of-capacity write: %v", err)
		}
		if _, err := f.ReadPage(p, -1); !errors.Is(err, ErrCapacity) {
			return fmt.Errorf("negative read: %v", err)
		}
		return nil
	})
	// 7% OP on a 512-page device exports ~476 pages.
	if f.LogicalPages() >= f.dev.Geometry().Pages() {
		t.Fatal("over-provisioning not applied")
	}
}

func TestStripingSpreadsAcrossChannels(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	programs := programsPerChannel(f)
	run(t, eng, func(p *sim.Proc) error {
		for lpn := int64(0); lpn < 8; lpn++ {
			if err := f.WritePage(p, lpn, fill(f, 1)); err != nil {
				return err
			}
		}
		return nil
	})
	used := 0
	for _, n := range programs {
		if n > 0 {
			used++
		}
	}
	if used != 4 {
		t.Fatalf("striped writes used %d channels, want 4", used)
	}
}

func TestLinearAllocationFillsOneChannel(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Striping = false
	f := newTestFTL(eng, cfg)
	programs := programsPerChannel(f)
	run(t, eng, func(p *sim.Proc) error {
		for lpn := int64(0); lpn < 8; lpn++ { // one block is 8 pages
			if err := f.WritePage(p, lpn, fill(f, 1)); err != nil {
				return err
			}
		}
		return nil
	})
	if programs[0] == 0 {
		t.Fatal("linear allocation did not start on channel 0")
	}
	for c := 1; c < 4; c++ {
		if programs[c] > 0 {
			t.Fatalf("linear allocation leaked onto channel %d", c)
		}
	}
}

func TestStripingIsFasterThanLinear(t *testing.T) {
	elapsed := func(striping bool) sim.Duration {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Striping = striping
		f := newTestFTL(eng, cfg)
		eng.Go("w", func(p *sim.Proc) {
			for lpn := int64(0); lpn < 64; lpn++ {
				if err := f.WritePage(p, lpn, fill(f, 1)); err != nil {
					t.Error(err)
					return
				}
			}
		})
		return eng.Run().Duration()
	}
	// Sequential process: striping round-robins channels but a single
	// writer still serialises on program latency; the win appears with
	// concurrent writers. Use 4 writers.
	elapsedN := func(striping bool) sim.Duration {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Striping = striping
		f := newTestFTL(eng, cfg)
		for w := 0; w < 4; w++ {
			w := w
			eng.Go("w", func(p *sim.Proc) {
				for i := int64(0); i < 16; i++ {
					if err := f.WritePage(p, int64(w)*16+i, fill(f, 1)); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		return eng.Run().Duration()
	}
	_ = elapsed
	st, lin := elapsedN(true), elapsedN(false)
	if st >= lin {
		t.Fatalf("striping (%v) not faster than linear (%v) under concurrency", st, lin)
	}
}

func TestTrimUnmapsAndReadsZero(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	run(t, eng, func(p *sim.Proc) error {
		for lpn := int64(0); lpn < 10; lpn++ {
			if err := f.WritePage(p, lpn, fill(f, 0xFF)); err != nil {
				return err
			}
		}
		if err := f.Trim(p, 2, 5); err != nil {
			return err
		}
		got, err := f.ReadPage(p, 3)
		if err != nil {
			return err
		}
		if got[0] != 0 {
			return errors.New("trimmed page not zero")
		}
		kept, err := f.ReadPage(p, 0)
		if err != nil {
			return err
		}
		if kept[0] != 0xFF {
			return errors.New("trim clobbered an untrimmed page")
		}
		return nil
	})
	if f.Stats().Trims != 5 {
		t.Fatalf("trims = %d, want 5", f.Stats().Trims)
	}
	if f.l2p.mapped != 5 {
		t.Fatalf("mapped = %d, want 5", f.l2p.mapped)
	}
}

func TestGarbageCollectionReclaimsSpace(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	// Overwrite a small working set far more times than raw capacity:
	// impossible without GC.
	run(t, eng, func(p *sim.Proc) error {
		total := f.dev.Geometry().Pages() * 3
		for i := int64(0); i < total; i++ {
			lpn := i % 32
			if err := f.WritePage(p, lpn, fill(f, byte(i))); err != nil {
				return fmt.Errorf("write %d: %w", i, err)
			}
		}
		return nil
	})
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("GC never ran despite 3x capacity writes")
	}
	if f.dev.Stats().Erases == 0 {
		t.Fatal("no erases recorded")
	}
	if wa := st.WriteAmplification(); wa < 1.0 {
		t.Fatalf("write amplification %g < 1", wa)
	}
}

func TestGCDataIntegrityUnderChurn(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	shadow := make(map[int64]byte)
	run(t, eng, func(p *sim.Proc) error {
		for i := 0; i < 3000; i++ {
			lpn := int64(rng.Intn(64))
			b := byte(rng.Intn(256))
			if err := f.WritePage(p, lpn, fill(f, b)); err != nil {
				return err
			}
			shadow[lpn] = b
		}
		for lpn, want := range shadow {
			got, err := f.ReadPage(p, lpn)
			if err != nil {
				return err
			}
			if got[0] != want {
				return fmt.Errorf("lpn %d = %d, want %d (GC corrupted data)", lpn, got[0], want)
			}
		}
		return nil
	})
	if f.Stats().GCRuns == 0 {
		t.Fatal("test did not exercise GC")
	}
}

func TestWearLeveling(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	run(t, eng, func(p *sim.Proc) error {
		total := f.dev.Geometry().Pages() * 4
		for i := int64(0); i < total; i++ {
			if err := f.WritePage(p, i%40, fill(f, byte(i))); err != nil {
				return err
			}
		}
		return nil
	})
	// With wear-aware victim selection the max erase count should stay
	// within a small factor of the mean.
	dev := f.dev
	geo := dev.Geometry()
	var total, n, most int64
	for blk := int64(0); blk < geo.Blocks(); blk++ {
		c := dev.EraseCount(geo.AddrOfBlock(blk))
		total += c
		n++
		most = max(most, c)
	}
	mean := float64(total) / float64(n)
	if mean == 0 {
		t.Fatal("no wear recorded")
	}
	if max := float64(most); max > 6*mean+2 {
		t.Fatalf("wear imbalance: max %g vs mean %g", max, mean)
	}
}

func TestWriteAmplificationStats(t *testing.T) {
	var s Stats
	if s.WriteAmplification() != 0 {
		t.Fatal("WA of zero writes should be 0")
	}
	s = Stats{HostWrites: 100, GCWrites: 50}
	if s.WriteAmplification() != 1.5 {
		t.Fatalf("WA = %g, want 1.5", s.WriteAmplification())
	}
}

// Property: after any sequence of writes and trims within a bounded LPN
// space, every mapped page reads back its last-written value.
func TestFTLShadowProperty(t *testing.T) {
	type op struct {
		LPN   uint8
		Val   byte
		Trim  bool
		Count uint8
	}
	f := func(ops []op) bool {
		eng := sim.NewEngine()
		ftl := newTestFTL(eng, DefaultConfig())
		shadow := make(map[int64]byte)
		okAll := true
		eng.Go("ops", func(p *sim.Proc) {
			for _, o := range ops {
				lpn := int64(o.LPN % 48)
				if o.Trim {
					cnt := int64(o.Count%8) + 1
					if lpn+cnt > 48 {
						cnt = 48 - lpn
					}
					if err := ftl.Trim(p, lpn, cnt); err != nil {
						okAll = false
						return
					}
					for i := int64(0); i < cnt; i++ {
						delete(shadow, lpn+i)
					}
				} else {
					if err := ftl.WritePage(p, lpn, fill(ftl, o.Val)); err != nil {
						okAll = false
						return
					}
					shadow[lpn] = o.Val
				}
			}
			for lpn := int64(0); lpn < 48; lpn++ {
				got, err := ftl.ReadPage(p, lpn)
				if err != nil {
					okAll = false
					return
				}
				want := shadow[lpn] // zero if unmapped
				if got[0] != want {
					okAll = false
					return
				}
			}
		})
		eng.Run()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
