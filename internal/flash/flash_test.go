package flash

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"compstor/internal/sim"
)

func testDevice(eng *sim.Engine) *Device {
	geo := Geometry{
		Channels:      4,
		DiesPerChan:   2,
		PlanesPerDie:  1,
		BlocksPerPlan: 8,
		PagesPerBlock: 16,
		PageSize:      512,
	}
	return NewDevice(eng, "nand", geo, DefaultTiming())
}

func page(dev *Device, b byte) []byte {
	d := make([]byte, dev.Geometry().PageSize)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestProgramThenReadRoundTrips(t *testing.T) {
	eng := sim.NewEngine()
	dev := testDevice(eng)
	a := Addr{Channel: 1, Die: 0, Block: 2, Page: 3}
	want := page(dev, 0xAB)
	eng.Go("io", func(p *sim.Proc) {
		if err := dev.ProgramPage(p, a, want); err != nil {
			t.Errorf("program: %v", err)
		}
		got, err := dev.ReadPage(p, a)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("data corrupted through program/read")
		}
	})
	eng.Run()
	st := dev.Stats()
	if st.Programs != 1 || st.Reads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	eng := sim.NewEngine()
	dev := testDevice(eng)
	a := Addr{Block: 1}
	eng.Go("io", func(p *sim.Proc) {
		if err := dev.ProgramPage(p, a, page(dev, 7)); err != nil {
			t.Errorf("program: %v", err)
		}
		got, _ := dev.ReadPage(p, a)
		got[0] = 99 // mutating the returned slice must not corrupt media
		again, _ := dev.ReadPage(p, a)
		if again[0] != 7 {
			t.Error("ReadPage returned aliased storage")
		}
	})
	eng.Run()
}

func TestProgramWithoutEraseFails(t *testing.T) {
	eng := sim.NewEngine()
	dev := testDevice(eng)
	a := Addr{Block: 4, Page: 5}
	eng.Go("io", func(p *sim.Proc) {
		if err := dev.ProgramPage(p, a, page(dev, 1)); err != nil {
			t.Errorf("first program: %v", err)
		}
		err := dev.ProgramPage(p, a, page(dev, 2))
		if !errors.Is(err, ErrNotErased) {
			t.Errorf("overwrite error = %v, want ErrNotErased", err)
		}
		if err := dev.EraseBlock(p, a); err != nil {
			t.Errorf("erase: %v", err)
		}
		if err := dev.ProgramPage(p, a, page(dev, 2)); err != nil {
			t.Errorf("program after erase: %v", err)
		}
		got, _ := dev.ReadPage(p, a)
		if got[0] != 2 {
			t.Error("stale data after erase+program")
		}
	})
	eng.Run()
}

func TestEraseClearsWholeBlockOnly(t *testing.T) {
	eng := sim.NewEngine()
	dev := testDevice(eng)
	in := Addr{Block: 3, Page: 0}
	other := Addr{Block: 2, Page: 0}
	eng.Go("io", func(p *sim.Proc) {
		dev.ProgramPage(p, in, page(dev, 1))
		dev.ProgramPage(p, Addr{Block: 3, Page: 9}, page(dev, 1))
		dev.ProgramPage(p, other, page(dev, 5))
		dev.EraseBlock(p, Addr{Block: 3, Page: 7}) // page ignored
		if dev.IsWritten(in) || dev.IsWritten(Addr{Block: 3, Page: 9}) {
			t.Error("erase left pages written")
		}
		if !dev.IsWritten(other) {
			t.Error("erase clobbered another block")
		}
		if _, err := dev.ReadPage(p, in); !errors.Is(err, ErrUnwritten) {
			t.Errorf("read erased page: %v, want ErrUnwritten", err)
		}
	})
	eng.Run()
	if dev.EraseCount(Addr{Block: 3}) != 1 {
		t.Fatal("erase count not tracked")
	}
	if maxWear(dev, dev.Geometry()) != 1 {
		t.Fatal("max erase count wrong")
	}
}

// maxWear is the highest erase count of any block in geometry g.
func maxWear(d interface{ EraseCount(Addr) int64 }, g Geometry) int64 {
	var most int64
	for blk := int64(0); blk < g.Blocks(); blk++ {
		most = max(most, d.EraseCount(g.AddrOfBlock(blk)))
	}
	return most
}

func TestOutOfRangeAndSizeErrors(t *testing.T) {
	eng := sim.NewEngine()
	dev := testDevice(eng)
	eng.Go("io", func(p *sim.Proc) {
		if _, err := dev.ReadPage(p, Addr{Channel: 99}); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("bad channel: %v", err)
		}
		if err := dev.ProgramPage(p, Addr{Page: -1}, page(dev, 0)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("bad page: %v", err)
		}
		if err := dev.ProgramPage(p, Addr{}, []byte{1, 2, 3}); !errors.Is(err, ErrPageSize) {
			t.Errorf("bad size: %v", err)
		}
		if err := dev.EraseBlock(p, Addr{Block: -1}); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("bad erase: %v", err)
		}
	})
	eng.Run()
}

func TestOperationTiming(t *testing.T) {
	eng := sim.NewEngine()
	geo := Geometry{Channels: 1, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerPlan: 4, PagesPerBlock: 4, PageSize: 4096}
	tm := Timing{
		ReadPage:           50 * time.Microsecond,
		ProgramPage:        600 * time.Microsecond,
		EraseBlock:         3 * time.Millisecond,
		ChannelBytesPerSec: 4096e6, // page crosses the bus in exactly 1us
	}
	dev := NewDevice(eng, "nand", geo, tm)
	var marks []sim.Time
	eng.Go("io", func(p *sim.Proc) {
		dev.ProgramPage(p, Addr{}, page(dev, 1)) // 1us bus + 600us prog
		marks = append(marks, p.Now())
		dev.ReadPage(p, Addr{}) // 50us read + 1us bus
		marks = append(marks, p.Now())
		dev.EraseBlock(p, Addr{}) // 3ms
		marks = append(marks, p.Now())
	})
	eng.Run()
	want := []sim.Time{
		sim.Time(601 * time.Microsecond),
		sim.Time(652 * time.Microsecond),
		sim.Time(3652 * time.Microsecond),
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("op %d finished at %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestChannelParallelism(t *testing.T) {
	// Reads on different channels overlap; reads on the same die serialise.
	eng := sim.NewEngine()
	dev := testDevice(eng)
	prep := func(a Addr) {
		eng.Go("prep", func(p *sim.Proc) { dev.ProgramPage(p, a, page(dev, 1)) })
	}
	a0 := Addr{Channel: 0}
	a1 := Addr{Channel: 1}
	prep(a0)
	prep(a1)
	eng.Run()

	eng2start := eng.Now()
	var parallelEnd sim.Time
	for _, a := range []Addr{a0, a1} {
		a := a
		eng.Go("rd", func(p *sim.Proc) {
			dev.ReadPage(p, a)
			if p.Now() > parallelEnd {
				parallelEnd = p.Now()
			}
		})
	}
	eng.Run()
	parallel := parallelEnd.Sub(eng2start)

	var serialEnd sim.Time
	serialStart := eng.Now()
	for i := 0; i < 2; i++ {
		eng.Go("rd", func(p *sim.Proc) {
			dev.ReadPage(p, a0)
			if p.Now() > serialEnd {
				serialEnd = p.Now()
			}
		})
	}
	eng.Run()
	serial := serialEnd.Sub(serialStart)
	if parallel >= serial {
		t.Fatalf("cross-channel reads (%v) not faster than same-die reads (%v)", parallel, serial)
	}
}

func TestGeometryDerived(t *testing.T) {
	g := Geometry{Channels: 16, DiesPerChan: 8, PlanesPerDie: 2, BlocksPerPlan: 1024, PagesPerBlock: 2304, PageSize: 16384}
	if g.Blocks() != 16*8*2*1024 {
		t.Fatalf("Blocks = %d", g.Blocks())
	}
	if g.Pages() != g.Blocks()*2304 {
		t.Fatalf("Pages = %d", g.Pages())
	}
	wantBytes := g.Pages() * 16384
	if g.Bytes() != wantBytes {
		t.Fatalf("Bytes = %d", g.Bytes())
	}
	// Paper: 16 channels x 533 MB/s = ~8.5 GB/s per SSD media bandwidth.
	bw := g.MediaBandwidth(DefaultTiming())
	if bw < 8.4e9 || bw > 8.6e9 {
		t.Fatalf("media bandwidth = %g, want ~8.5 GB/s", bw)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if (Geometry{}).Validate() == nil {
		t.Fatal("zero geometry validated")
	}
}

func TestPaperGeometryIs24TBClass(t *testing.T) {
	b := PaperGeometry().Bytes()
	if b < 20e12 || b > 28e12 {
		t.Fatalf("paper geometry capacity = %d bytes, want ~24 TB", b)
	}
}

// Property: program/read round-trips arbitrary page contents on arbitrary
// valid addresses.
func TestRoundTripProperty(t *testing.T) {
	f := func(ch, die, blk, pg uint8, fill byte) bool {
		eng := sim.NewEngine()
		dev := testDevice(eng)
		g := dev.Geometry()
		a := Addr{
			Channel: int(ch) % g.Channels,
			Die:     int(die) % g.DiesPerChan,
			Block:   int(blk) % g.BlocksPerPlan,
			Page:    int(pg) % g.PagesPerBlock,
		}
		ok := true
		eng.Go("io", func(p *sim.Proc) {
			if err := dev.ProgramPage(p, a, page(dev, fill)); err != nil {
				ok = false
				return
			}
			got, err := dev.ReadPage(p, a)
			if err != nil || !bytes.Equal(got, page(dev, fill)) {
				ok = false
			}
		})
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
