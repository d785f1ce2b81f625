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

// TestProgramFaultRetiresGrownBadBlock: a block whose programs keep failing
// is retired (grown-bad) and the host write still succeeds on a fresh block,
// so a single bad block never surfaces as a write error.
func TestProgramFaultRetiresGrownBadBlock(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	geo := smallGeo()
	badBlock := int64(-1)
	f.dev.SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
		if op != flash.FaultProgram {
			return nil
		}
		blk := geo.BlockIndex(a)
		if badBlock == -1 {
			badBlock = blk // whatever block the first program targets is bad
		}
		if blk == badBlock {
			return errMedia
		}
		return nil
	})
	run(t, eng, func(p *sim.Proc) error {
		if err := f.WritePage(p, 5, fill(f, 0xAB)); err != nil {
			return fmt.Errorf("write through bad block: %w", err)
		}
		got, err := f.ReadPage(p, 5)
		if err != nil {
			return err
		}
		if got[0] != 0xAB {
			return fmt.Errorf("read back %#x", got[0])
		}
		return nil
	})
	if f.Stats().RetiredBlocks != 1 {
		t.Fatalf("RetiredBlocks = %d, want 1", f.Stats().RetiredBlocks)
	}
	if !f.blocks[badBlock].bad {
		t.Fatalf("block %d not marked bad", badBlock)
	}
}

// TestRetiredBlockNeverReused: once retired, a block must receive no further
// programs even under allocation pressure that cycles every other block
// through GC.
func TestRetiredBlockNeverReused(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, Config{OverProvision: 0.4, CheckpointEvery: -1})
	geo := smallGeo()
	badBlock := int64(-1)
	failedOnce := false
	var programsToBad int
	f.dev.SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
		if op != flash.FaultProgram {
			return nil
		}
		blk := geo.BlockIndex(a)
		if !failedOnce {
			badBlock, failedOnce = blk, true
			return errMedia
		}
		if blk == badBlock {
			programsToBad++
		}
		return nil
	})
	run(t, eng, func(p *sim.Proc) error {
		span := f.LogicalPages() / 2
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 600; i++ {
			if err := f.WritePage(p, rng.Int63n(span), fill(f, byte(i))); err != nil {
				return err
			}
		}
		return nil
	})
	if f.Stats().RetiredBlocks != 1 {
		t.Fatalf("RetiredBlocks = %d, want 1", f.Stats().RetiredBlocks)
	}
	if programsToBad != 0 {
		t.Fatalf("retired block %d was programmed %d more times", badBlock, programsToBad)
	}
}

// TestGCIntegrityUnderTransientFaults is the churn test rerun under the
// PR 1 fault hooks: sparse transient program and erase faults fire while GC
// relocates and erases, retiring the affected blocks. Every logical page
// must still read back exactly what a shadow map says it holds.
func TestGCIntegrityUnderTransientFaults(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, Config{OverProvision: 0.35, CheckpointEvery: 64})
	faultRng := rand.New(rand.NewSource(4242))
	var programFaults, eraseFaults int
	f.dev.SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
		switch op {
		case flash.FaultProgram:
			// Bounded: each fault retires a block, and the small test device
			// cannot spare many.
			if programFaults < 3 && faultRng.Float64() < 0.004 {
				programFaults++
				return errMedia
			}
		case flash.FaultErase:
			if eraseFaults < 2 && faultRng.Float64() < 0.02 {
				eraseFaults++
				return errMedia
			}
		}
		return nil
	})
	span := f.LogicalPages() * 6 / 10
	shadow := make(map[int64]byte)
	run(t, eng, func(p *sim.Proc) error {
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 1500; i++ {
			lpn := rng.Int63n(span)
			switch {
			case rng.Float64() < 0.12 && len(shadow) > 0:
				n := rng.Int63n(4) + 1
				if lpn+n > span {
					n = span - lpn
				}
				if err := f.Trim(p, lpn, n); err != nil {
					return fmt.Errorf("trim op %d: %w", i, err)
				}
				for j := int64(0); j < n; j++ {
					delete(shadow, lpn+j)
				}
			default:
				b := byte(i)
				if err := f.WritePage(p, lpn, fill(f, b)); err != nil {
					return fmt.Errorf("write op %d: %w", i, err)
				}
				shadow[lpn] = b
			}
		}
		for lpn := int64(0); lpn < span; lpn++ {
			got, err := f.ReadPage(p, lpn)
			if err != nil {
				return fmt.Errorf("verify lpn %d: %w", lpn, err)
			}
			want, ok := shadow[lpn]
			if !ok {
				want = 0
			}
			if !bytes.Equal(got, fill(f, want)) {
				return fmt.Errorf("lpn %d holds %#x, want %#x", lpn, got[0], want)
			}
		}
		return nil
	})
	if programFaults+eraseFaults == 0 {
		t.Fatal("no faults fired; the test exercised nothing")
	}
	if got := f.Stats().RetiredBlocks; got == 0 {
		t.Fatalf("faults fired (%d program, %d erase) but no block was retired",
			programFaults, eraseFaults)
	}
}

// TestTrimJournalFaultLeavesMappingIntact: the TRIM revocation record is
// journaled to media before any mapping is dropped. If that program fails
// outright (every attempt, on every block), the TRIM must report the error
// and leave the data fully readable — never an unmapped page whose
// revocation could not be made durable.
func TestTrimJournalFaultLeavesMappingIntact(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	run(t, eng, func(p *sim.Proc) error {
		for lpn := int64(0); lpn < 4; lpn++ {
			if err := f.WritePage(p, lpn, fill(f, byte(0x40+lpn))); err != nil {
				return err
			}
		}
		f.dev.SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
			if op == flash.FaultProgram {
				return errMedia
			}
			return nil
		})
		if err := f.Trim(p, 0, 4); !errors.Is(err, errMedia) {
			return fmt.Errorf("trim with unwritable journal: %v, want errMedia", err)
		}
		f.dev.SetFaultHook(nil)
		for lpn := int64(0); lpn < 4; lpn++ {
			got, err := f.ReadPage(p, lpn)
			if err != nil {
				return fmt.Errorf("read after failed trim: %w", err)
			}
			if got[0] != byte(0x40+lpn) {
				return fmt.Errorf("lpn %d lost its data: %#x", lpn, got[0])
			}
		}
		return nil
	})
	if f.Stats().TrimRecords != 0 {
		t.Fatalf("TrimRecords = %d after a failed trim", f.Stats().TrimRecords)
	}
	if f.l2p.mapped != 4 {
		t.Fatalf("MappedPages = %d, want 4", f.l2p.mapped)
	}
}

// TestGCEraseFaultRetiresVictim: the first GC erase fails. The victim, its
// live pages already relocated, is retired in place — read-only, never
// allocated again under the churn that follows — and every page reads back
// what was last written, before and after a power cut and Recover.
func TestGCEraseFaultRetiresVictim(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{OverProvision: 0.25, CheckpointEvery: -1}
	f := newTestFTL(eng, cfg)
	geo := smallGeo()
	victim := int64(-1)
	var gcWritesAtFault int64
	programsToVictim := 0
	f.dev.SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
		switch blk := geo.BlockIndex(a); {
		case op == flash.FaultErase && victim == -1:
			victim, gcWritesAtFault = blk, f.stats.GCWrites
			return errMedia
		case op == flash.FaultProgram && blk == victim:
			programsToVictim++
		}
		return nil
	})
	shadow := map[int64]byte{}
	check := func(f *FTL) {
		run(t, eng, func(p *sim.Proc) error {
			for lpn, b := range shadow {
				if got, err := f.ReadPage(p, lpn); err != nil || !bytes.Equal(got, fill(f, b)) {
					return fmt.Errorf("lpn %d: %v, want %#x", lpn, err, b)
				}
			}
			return nil
		})
	}
	run(t, eng, func(p *sim.Proc) error {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 600; i++ {
			lpn, b := rng.Int63n(f.LogicalPages()), byte(i)
			if err := f.WritePage(p, lpn, fill(f, b)); err != nil {
				return err
			}
			shadow[lpn] = b
		}
		return nil
	})
	st := f.Stats()
	if victim == -1 || gcWritesAtFault == 0 || st.RetiredBlocks != 1 || !f.blocks[victim].bad {
		t.Fatalf("victim %d (bad %v), %d GC writes before its erase, stats %+v: want one retired victim with relocated pages",
			victim, victim >= 0 && f.blocks[victim].bad, gcWritesAtFault, st)
	}
	if st.GCRuns < 10 || programsToVictim != 0 {
		t.Fatalf("%d GC runs after the fault, %d programs into retired block %d: want churn that never reuses it", st.GCRuns, programsToVictim, victim)
	}
	check(f)
	f.dev.PowerOff()
	f.dev.PowerOn()
	f2, _ := recoverFTL(t, eng, f.dev, cfg)
	check(f2)
}

// TestGCDropsCheckpointedTrimRecord: a TRIM record that a checkpoint
// covers is garbage. A GC pass that relocates such a record while a
// checkpoint commits over it carries the copy past the checkpoint's prune;
// when the copy's block is collected in turn, the record is dropped, not
// relocated again, and the trimmed page still reads zeroes after a power cut
// and Recover. The checkpoint's start is swept until it commits inside the
// record's relocation.
func TestGCDropsCheckpointedTrimRecord(t *testing.T) {
	cfg := Config{OverProvision: 0.25, CheckpointEvery: -1}
	ppb := int64(smallGeo().PagesPerBlock)
	for delay := time.Duration(0); delay < 8*time.Millisecond; delay += 5 * time.Microsecond {
		eng := sim.NewEngine()
		f := newTestFTL(eng, cfg)
		run(t, eng, func(p *sim.Proc) error {
			// Linear allocation fills one block: data, the record trimming
			// lpn 0, more data. GC will collect it while a checkpoint runs.
			for lpn := int64(0); lpn < ppb-2; lpn++ {
				if err := f.WritePage(p, lpn, fill(f, byte(lpn+1))); err != nil {
					return err
				}
			}
			if err := f.Trim(p, 0, 1); err != nil {
				return err
			}
			if err := f.WritePage(p, ppb-2, fill(f, 0xEE)); err != nil {
				return err
			}
			var ckptErr error
			p.Go("checkpoint", func(c *sim.Proc) {
				c.Wait(delay)
				ckptErr = f.Checkpoint(c)
			})
			if err := f.gcOnce(p); err != nil {
				return err
			}
			p.Wait(10 * time.Millisecond)
			return ckptErr
		})
		stale := int64(-1)
		for ppn, ts := range f.trimPages {
			if ts <= f.ckptSeq {
				stale = ppn
			}
		}
		if stale < 0 {
			continue
		}
		blk := stale / ppb
		run(t, eng, func(p *sim.Proc) error {
			// Move the block's live data away, twice since the first copies
			// may land in its free tail: only the stale record is left.
			for i := int64(0); i < 2*(ppb-2); i++ {
				if err := f.WritePage(p, 1+i%(ppb-2), fill(f, 0xEE)); err != nil {
					return err
				}
			}
			if v := f.blocks[blk].valid; v != 1 {
				return fmt.Errorf("block %d holds %d valid records before GC, want the TRIM record alone", blk, v)
			}
			before := f.Stats()
			if err := f.gcOnce(p); err != nil {
				return err
			}
			after := f.Stats()
			if after.GCRuns != before.GCRuns+1 || after.GCWrites != before.GCWrites || len(f.trimPages) != 0 {
				return fmt.Errorf("GC runs %d→%d, writes %d→%d, %d TRIM records left: want one run that relocates nothing",
					before.GCRuns, after.GCRuns, before.GCWrites, after.GCWrites, len(f.trimPages))
			}
			if st := f.blocks[blk]; st.valid != 0 || st.nextPage != 0 {
				return fmt.Errorf("victim block %d is %+v after GC, want erased and free", blk, st)
			}
			return nil
		})
		f.dev.PowerOff()
		f.dev.PowerOn()
		f2, _ := recoverFTL(t, eng, f.dev, cfg)
		run(t, eng, func(p *sim.Proc) error {
			if got, err := f2.ReadPage(p, 0); err != nil || !bytes.Equal(got, make([]byte, f2.PageSize())) {
				return fmt.Errorf("trimmed lpn 0 after recovery: %v; want zeroes", err)
			}
			for lpn := int64(1); lpn < ppb-1; lpn++ {
				if got, err := f2.ReadPage(p, lpn); err != nil || got[0] != 0xEE {
					return fmt.Errorf("lpn %d after recovery: %v", lpn, err)
				}
			}
			return nil
		})
		t.Logf("checkpoint %v after GC start commits inside the record's relocation", delay)
		return
	}
	t.Fatal("no checkpoint start commits while GC relocates the TRIM record")
}
