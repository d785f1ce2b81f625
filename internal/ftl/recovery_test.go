package ftl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"compstor/internal/flash"
	"compstor/internal/sim"
)

// recoverFTL remounts dev on eng and returns the rebuilt FTL.
func recoverFTL(t *testing.T, eng *sim.Engine, dev *flash.Device, cfg Config) (*FTL, RecoveryStats) {
	t.Helper()
	var (
		f2   *FTL
		rs   RecoveryStats
		rerr error
	)
	eng.Go("recover", func(p *sim.Proc) { f2, rs, rerr = Recover(p, dev, cfg) })
	eng.Run()
	if rerr != nil {
		t.Fatalf("recover: %v", rerr)
	}
	return f2, rs
}

func TestRecoverFromCheckpoint(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	run(t, eng, func(p *sim.Proc) error {
		for lpn := int64(0); lpn < 30; lpn++ {
			if err := f.WritePage(p, lpn, fill(f, byte(lpn))); err != nil {
				return err
			}
		}
		return f.Sync(p)
	})
	if f.Stats().Checkpoints == 0 {
		t.Fatal("Sync committed no checkpoint")
	}
	dev := f.dev
	dev.PowerOff()
	dev.PowerOn()
	f2, rs := recoverFTL(t, eng, dev, DefaultConfig())
	if !rs.CheckpointFound || rs.CheckpointEntries != 30 {
		t.Fatalf("recovery stats = %+v", rs)
	}
	if f2.l2p.mapped != 30 {
		t.Fatalf("recovered %d pages, want 30", f2.l2p.mapped)
	}
	run(t, eng, func(p *sim.Proc) error {
		for lpn := int64(0); lpn < 30; lpn++ {
			got, err := f2.ReadPage(p, lpn)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, fill(f2, byte(lpn))) {
				return fmt.Errorf("lpn %d wrong after recovery", lpn)
			}
		}
		return nil
	})
}

func TestRecoverByScanWithoutCheckpoint(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, Config{OverProvision: 0.07, Striping: true, CheckpointEvery: -1})
	run(t, eng, func(p *sim.Proc) error {
		for lpn := int64(0); lpn < 25; lpn++ {
			if err := f.WritePage(p, lpn, fill(f, byte(lpn+1))); err != nil {
				return err
			}
		}
		// Overwrite a few so stale versions sit on media.
		for lpn := int64(0); lpn < 5; lpn++ {
			if err := f.WritePage(p, lpn, fill(f, 0xAA)); err != nil {
				return err
			}
		}
		return nil
	})
	dev := f.dev
	dev.PowerOff()
	dev.PowerOn()
	f2, rs := recoverFTL(t, eng, dev, DefaultConfig())
	if rs.CheckpointFound {
		t.Fatalf("found a checkpoint that was never written: %+v", rs)
	}
	if rs.ReplayedWrites != 25 || f2.l2p.mapped != 25 {
		t.Fatalf("recovery stats = %+v, mapped %d", rs, f2.l2p.mapped)
	}
	run(t, eng, func(p *sim.Proc) error {
		for lpn := int64(0); lpn < 25; lpn++ {
			want := fill(f2, byte(lpn+1))
			if lpn < 5 {
				want = fill(f2, 0xAA)
			}
			got, err := f2.ReadPage(p, lpn)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("lpn %d: stale version resurrected", lpn)
			}
		}
		return nil
	})
}

func TestRecoverDoesNotResurrectTrims(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	run(t, eng, func(p *sim.Proc) error {
		for lpn := int64(0); lpn < 20; lpn++ {
			if err := f.WritePage(p, lpn, fill(f, 0x11)); err != nil {
				return err
			}
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		// TRIM after the checkpoint: only the journal record protects it.
		return f.Trim(p, 5, 10)
	})
	dev := f.dev
	dev.PowerOff()
	dev.PowerOn()
	f2, rs := recoverFTL(t, eng, dev, DefaultConfig())
	if rs.ReplayedTrims != 1 {
		t.Fatalf("recovery stats = %+v", rs)
	}
	if f2.l2p.mapped != 10 {
		t.Fatalf("recovered %d pages, want 10 (trim resurrected?)", f2.l2p.mapped)
	}
	run(t, eng, func(p *sim.Proc) error {
		zero := make([]byte, f2.PageSize())
		for lpn := int64(5); lpn < 15; lpn++ {
			got, err := f2.ReadPage(p, lpn)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, zero) {
				return fmt.Errorf("trimmed lpn %d resurrected", lpn)
			}
		}
		return nil
	})
}

func TestTornProgramRollsBack(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	dev := f.dev
	var writeErr error
	eng.Go("w", func(p *sim.Proc) {
		if err := f.WritePage(p, 3, fill(f, 0x01)); err != nil {
			writeErr = err
			return
		}
		// The second version is cut mid-program: never acknowledged.
		writeErr = f.WritePage(p, 3, fill(f, 0x02))
	})
	// Cut power mid-way through the second program (each program costs
	// ~600µs after the first completes).
	eng.At(sim.Time(900*time.Microsecond), dev.PowerOff)
	eng.Run()
	if !errors.Is(writeErr, flash.ErrPowerLoss) {
		t.Fatalf("second write should have died in the cut, got %v", writeErr)
	}
	dev.PowerOn()
	f2, rs := recoverFTL(t, eng, dev, DefaultConfig())
	if rs.TornPages == 0 {
		t.Fatalf("no torn page detected: %+v", rs)
	}
	run(t, eng, func(p *sim.Proc) error {
		got, err := f2.ReadPage(p, 3)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, fill(f2, 0x01)) {
			return fmt.Errorf("lpn 3 did not roll back to the acknowledged version")
		}
		return nil
	})
}

func TestCorruptionDetectedOnRead(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	run(t, eng, func(p *sim.Proc) error {
		return f.WritePage(p, 9, fill(f, 0x77))
	})
	// Find the physical page backing lpn 9 and silently flip bits in it.
	dev := f.dev
	geo := dev.Geometry()
	corrupted := false
	for ppn := int64(0); ppn < geo.Pages(); ppn++ {
		if oob, ok := dev.PeekInto(geo.AddrOfPage(ppn), nil); ok && oob.LPN == 9 {
			if !dev.CorruptPage(geo.AddrOfPage(ppn)) {
				t.Fatal("nothing to corrupt")
			}
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("backing page not found")
	}
	eng.Go("r", func(p *sim.Proc) {
		if _, err := f.ReadPage(p, 9); !errors.Is(err, ErrCorrupt) {
			t.Errorf("corruption not detected: %v", err)
		}
	})
	eng.Run()
	if f.Stats().CorruptReads != 1 {
		t.Fatalf("stats = %+v", f.Stats())
	}
}

// Crash-torture suite ---------------------------------------------------------

func tortureGeo() flash.Geometry {
	return flash.Geometry{
		Channels:      4,
		DiesPerChan:   1,
		PlanesPerDie:  1,
		BlocksPerPlan: 24,
		PagesPerBlock: 8,
		PageSize:      256,
	}
}

func tortureCfg() Config {
	return Config{OverProvision: 0.28, Striping: true, CheckpointEvery: 48}
}

const (
	tortureWriters = 3
	tortureSpanPer = 100 // logical pages per writer
	tortureOps     = 200 // operations per writer
)

// runTortureWorkload replays the seeded multi-writer write/trim/sync
// workload, cutting device power at cutAt (pass -1 for no cut). It returns
// the device, the engine, the record of every acknowledged state change,
// and the virtual end time. The ack map is updated in the same process
// continuation that observes the FTL call return, so it is exactly the set
// of writes a client could have been told succeeded.
func runTortureWorkload(seed int64, cutAt sim.Time) (*flash.Device, *sim.Engine, map[int64][]byte, sim.Time) {
	eng := sim.NewEngine()
	dev := flash.NewDevice(eng, "nand", tortureGeo(), flash.DefaultTiming())
	f := New(dev, tortureCfg())
	ack := make(map[int64][]byte)
	for k := 0; k < tortureWriters; k++ {
		k := k
		base := int64(k) * tortureSpanPer
		eng.Go(fmt.Sprintf("writer-%d", k), func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed*1000 + int64(k)))
			ver := 0
			for op := 0; op < tortureOps; op++ {
				r := rng.Float64()
				switch {
				case r < 0.82:
					lpn := base + rng.Int63n(tortureSpanPer)
					ver++
					data := make([]byte, f.PageSize())
					for i := range data {
						data[i] = byte(int(lpn)*31 + ver*7 + i)
					}
					if err := f.WritePage(p, lpn, data); err != nil {
						return // unacknowledged: the cut got us
					}
					ack[lpn] = data
				case r < 0.93:
					lpn := base + rng.Int63n(tortureSpanPer-10)
					n := 1 + rng.Int63n(10)
					if err := f.Trim(p, lpn, n); err != nil {
						return
					}
					for i := int64(0); i < n; i++ {
						delete(ack, lpn+i)
					}
				default:
					if err := f.Sync(p); err != nil {
						return
					}
				}
				p.Wait(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		})
	}
	if cutAt >= 0 {
		eng.At(cutAt, dev.PowerOff)
	}
	end := eng.Run()
	return dev, eng, ack, end
}

// verifyRecovered asserts the remounted FTL serves exactly the acknowledged
// state: every acked write byte-for-byte, every other page as zeroes.
func verifyRecovered(t *testing.T, eng *sim.Engine, f *FTL, ack map[int64][]byte, label string) {
	t.Helper()
	var verr error
	eng.Go("verify", func(p *sim.Proc) {
		zero := make([]byte, f.PageSize())
		for lpn := int64(0); lpn < tortureWriters*tortureSpanPer; lpn++ {
			got, err := f.ReadPage(p, lpn)
			if err != nil {
				verr = fmt.Errorf("%s: lpn %d: %v", label, lpn, err)
				return
			}
			want, acked := ack[lpn]
			if !acked {
				want = zero
			}
			if !bytes.Equal(got, want) {
				verr = fmt.Errorf("%s: lpn %d: recovered bytes differ from acknowledged state (acked=%v)", label, lpn, acked)
				return
			}
		}
	})
	eng.Run()
	if verr != nil {
		t.Fatal(verr)
	}
}

// TestCrashTorture is the headline robustness suite: a seeded concurrent
// write/GC/trim/sync workload is cut at many points across its lifetime;
// after every cut, remount must recover exactly the acknowledged writes —
// no lost acks, no resurrected trims, no torn data served.
func TestCrashTorture(t *testing.T) {
	seeds := []int64{1, 2, 3}
	cuts := 100
	if testing.Short() {
		seeds = seeds[:1]
		cuts = 25
	}
	for _, seed := range seeds {
		_, _, _, end := runTortureWorkload(seed, -1)
		if end == 0 {
			t.Fatal("workload ran in zero time")
		}
		for i := 0; i <= cuts; i++ {
			cutAt := sim.Time(int64(end) * int64(i) / int64(cuts))
			dev, eng, ack, _ := runTortureWorkload(seed, cutAt)
			dev.PowerOn()
			f2, _ := recoverFTL(t, eng, dev, tortureCfg())
			verifyRecovered(t, eng, f2, ack, fmt.Sprintf("seed %d cut %d", seed, i))
		}
	}
}

// TestCrashTortureDeterministic replays the same seed and cut point twice
// and requires bit-identical recovery: same stats, same map.
func TestCrashTortureDeterministic(t *testing.T) {
	_, _, _, end := runTortureWorkload(7, -1)
	for _, frac := range []int64{3, 5, 7} {
		cutAt := sim.Time(int64(end) / frac)
		var stats [2]RecoveryStats
		var maps [2]int64
		var acks [2]int
		for rep := 0; rep < 2; rep++ {
			dev, eng, ack, _ := runTortureWorkload(7, cutAt)
			dev.PowerOn()
			f2, rs := recoverFTL(t, eng, dev, tortureCfg())
			stats[rep] = rs
			maps[rep] = f2.l2p.mapped
			acks[rep] = len(ack)
		}
		if stats[0] != stats[1] || maps[0] != maps[1] || acks[0] != acks[1] {
			t.Fatalf("cut at 1/%d not deterministic:\n%+v (%d mapped, %d acked)\n%+v (%d mapped, %d acked)",
				frac, stats[0], maps[0], acks[0], stats[1], maps[1], acks[1])
		}
	}
}

// TestRecoverSurvivesMidCheckpointCut cuts power while a checkpoint is being
// written: the previous checkpoint (other region) must still be found.
func TestRecoverSurvivesMidCheckpointCut(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	dev := f.dev
	var syncStarted sim.Time
	eng.Go("w", func(p *sim.Proc) {
		for lpn := int64(0); lpn < 40; lpn++ {
			if err := f.WritePage(p, lpn, fill(f, byte(lpn))); err != nil {
				t.Errorf("write %d: %v", lpn, err)
				return
			}
		}
		if err := f.Sync(p); err != nil { // checkpoint #1, region 0
			t.Errorf("sync: %v", err)
			return
		}
		if err := f.WritePage(p, 40, fill(f, 0x40)); err != nil {
			t.Errorf("write 40: %v", err)
			return
		}
		syncStarted = p.Now()
		// Checkpoint #2 into region 1 is torn by the cut below.
		if err := f.Sync(p); !errors.Is(err, flash.ErrPowerLoss) {
			t.Errorf("torn sync should fail with power loss, got %v", err)
		}
	})
	// First: drive to just before the second Sync to learn its start, then
	// replay with the cut planted inside it. Simpler: cut well into the
	// second sync — it starts after 41 writes + first sync, so cut 2ms
	// after the 41st program completes. Run once to find the time.
	probe := sim.NewEngine()
	pf := newTestFTL(probe, DefaultConfig())
	probe.Go("probe", func(p *sim.Proc) {
		for lpn := int64(0); lpn < 40; lpn++ {
			if err := pf.WritePage(p, lpn, fill(pf, byte(lpn))); err != nil {
				return
			}
		}
		if err := pf.Sync(p); err != nil {
			return
		}
		if err := pf.WritePage(p, 40, fill(pf, 0x40)); err != nil {
			return
		}
		syncStarted = p.Now()
		_ = pf.Sync(p)
	})
	probe.Run()
	if syncStarted == 0 {
		t.Fatal("probe run never reached the second sync")
	}
	eng.At(syncStarted.Add(2*time.Millisecond), dev.PowerOff)
	eng.Run()
	dev.PowerOn()
	f2, rs := recoverFTL(t, eng, dev, DefaultConfig())
	if !rs.CheckpointFound {
		t.Fatalf("previous checkpoint lost: %+v", rs)
	}
	if f2.l2p.mapped != 41 {
		t.Fatalf("recovered %d pages, want 41", f2.l2p.mapped)
	}
	run(t, eng, func(p *sim.Proc) error {
		got, err := f2.ReadPage(p, 40)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, fill(f2, 0x40)) {
			return fmt.Errorf("acked write 40 lost")
		}
		return nil
	})
}
