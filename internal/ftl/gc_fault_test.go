package ftl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

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
