package flash

import (
	"bytes"
	"testing"

	"compstor/internal/sim"
)

// A program copies into a slab of its block, and a read copies out of it, so
// once a slab has been touched neither allocates — not a page buffer, not a
// closure for the engine-side continuation — and an erase keeps the slabs.
func TestSteadyStateOpsDoNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	geo := Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerPlan: 4, PagesPerBlock: 64, PageSize: 4096}
	dev := NewDevice(eng, "nand", geo, DefaultTiming())
	data, dst := make([]byte, geo.PageSize), make([]byte, geo.PageSize)
	eng.Go("io", func(p *sim.Proc) {
		pg := 0
		programNext := func() {
			a := Addr{Block: pg / geo.PagesPerBlock, Page: pg % geo.PagesPerBlock}
			if err := dev.ProgramPage(p, a, data); err != nil {
				t.Error(err)
			}
			pg++
		}
		// First pass: every page of two blocks, touching all their slabs.
		for pg < 2*geo.PagesPerBlock {
			programNext()
		}
		for blk := 0; blk < 2; blk++ {
			if err := dev.EraseBlock(p, Addr{Block: blk}); err != nil {
				t.Error(err)
			}
		}
		pg = 0
		if n := testing.AllocsPerRun(2*geo.PagesPerBlock-1, programNext); n != 0 {
			t.Errorf("ProgramPage into a touched block: %v allocs/op, want 0", n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := dev.ReadPageInto(p, Addr{Block: 1, Page: 33}, dst); err != nil {
				t.Error(err)
			}
		}); n != 0 {
			t.Errorf("ReadPageInto: %v allocs/op, want 0", n)
		}
	})
	eng.Run()
}

// Stored bytes belong to the device alone: not the buffer a program was
// given, not a slice a read returned, and a page read earlier does not change
// when its block is erased and programmed again underneath the reader.
func TestStoredBytesDoNotAlias(t *testing.T) {
	eng := sim.NewEngine()
	dev := testDevice(eng)
	a := Addr{Channel: 2, Block: 5, Page: 0}
	eng.Go("io", func(p *sim.Proc) {
		src := page(dev, 0x11)
		if err := dev.ProgramPage(p, a, src); err != nil {
			t.Error(err)
			return
		}
		for i := range src {
			src[i] = 0xEE // the caller's buffer is the caller's again
		}
		first, err := dev.ReadPage(p, a)
		if err != nil || !bytes.Equal(first, page(dev, 0x11)) {
			t.Errorf("stored page follows the caller's buffer: %x.. %v", first[:4], err)
		}
		into := make([]byte, dev.Geometry().PageSize)
		if _, err := dev.ReadPageInto(p, a, into); err != nil {
			t.Error(err)
		}
		first[0], into[0] = 0x99, 0x99
		if again, _ := dev.ReadPage(p, a); !bytes.Equal(again, page(dev, 0x11)) {
			t.Errorf("scribbling on a returned page reached the store: %x..", again[:4])
		}

		held, _ := dev.ReadPage(p, a)
		if err := dev.EraseBlock(p, a); err != nil {
			t.Error(err)
		}
		if err := dev.ProgramPage(p, a, page(dev, 0x22)); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(held, page(dev, 0x11)) {
			t.Errorf("a page read before erase+reprogram changed under the reader: %x..", held[:4])
		}
		if now, _ := dev.ReadPage(p, a); !bytes.Equal(now, page(dev, 0x22)) {
			t.Errorf("reprogrammed page reads %x..", now[:4])
		}
	})
	eng.Run()
}

// BenchmarkFlashProgramRead programs every page of a block and reads it back,
// block after block, erasing as it wraps: the steady state of the page store.
func BenchmarkFlashProgramRead(b *testing.B) {
	eng := sim.NewEngine()
	geo := Geometry{Channels: 16, DiesPerChan: 4, PlanesPerDie: 1, BlocksPerPlan: 16, PagesPerBlock: 64, PageSize: 4096}
	dev := NewDevice(eng, "nand", geo, DefaultTiming())
	data, dst := make([]byte, geo.PageSize), make([]byte, geo.PageSize)
	b.SetBytes(2 * int64(geo.PageSize))
	b.ReportAllocs()
	eng.Go("io", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			pg := int64(i) % geo.Pages()
			a := geo.AddrOfPage(pg)
			if a.Page == 0 && int64(i) >= geo.Pages() {
				if err := dev.EraseBlock(p, a); err != nil {
					b.Error(err)
					return
				}
			}
			if err := dev.ProgramPage(p, a, data); err != nil {
				b.Error(err)
				return
			}
			if _, err := dev.ReadPageInto(p, a, dst); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	eng.Run()
}
