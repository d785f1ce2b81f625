package flash

import (
	"testing"

	"compstor/internal/obs"
	"compstor/internal/sim"
)

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// A released device keeps its stats, and every media entry point panics
// rather than read or write storage another device may now own.
func TestReleasedDevicePanicsOnMediaAccess(t *testing.T) {
	eng := sim.NewEngine()
	dev := testDevice(eng)
	a := Addr{Channel: 1, Block: 2}
	buf := page(dev, 0x11)
	eng.Go("io", func(p *sim.Proc) {
		if err := dev.ProgramPage(p, a, buf); err != nil {
			t.Error(err)
			return
		}
		dev.Release()
		if st := dev.Stats(); st.Programs != 1 {
			t.Errorf("stats after Release: %+v, want the one program", st)
		}
		var op ReadOp
		op.Init(func(OOB, error) {})
		for _, c := range []struct {
			name   string
			access func()
		}{
			{"ReadPageInto", func() { dev.ReadPageInto(p, a, buf) }},
			{"StartRead", func() { dev.StartRead(&op, a, buf, obs.Ctx{}) }},
			{"ReadOOB", func() { dev.ReadOOB(p, a) }},
			{"ProgramPage", func() { dev.ProgramPage(p, a, buf) }},
			{"EraseBlock", func() { dev.EraseBlock(p, a) }},
			{"EraseCount", func() { dev.EraseCount(a) }},
			{"IsWritten", func() { dev.IsWritten(a) }},
			{"CorruptPage", func() { dev.CorruptPage(a) }},
			{"InjectRaw", func() { dev.InjectRaw(a, buf, OOB{}) }},
			{"PeekInto", func() { dev.PeekInto(a, buf) }},
		} {
			if !panics(c.access) {
				t.Errorf("%s on a released device did not panic", c.name)
			}
		}
	})
	eng.Run()
}

// A device built after another's Release takes the released payload slabs
// instead of allocating its own.
func TestReleasedSlabsAreReused(t *testing.T) {
	eng := sim.NewEngine()
	slabs := func(dev *Device) map[*byte]bool {
		out := map[*byte]bool{}
		for _, b := range dev.blocks {
			if b.store != nil {
				for _, s := range b.store.slabs {
					if s != nil {
						out[&s[0]] = true
					}
				}
			}
		}
		return out
	}
	fillBlocks := func(dev *Device) {
		eng.Go("fill", func(p *sim.Proc) {
			for blk := 0; blk < 3; blk++ {
				for pg := 0; pg < dev.Geometry().PagesPerBlock; pg++ {
					if err := dev.ProgramPage(p, Addr{Channel: blk, Block: blk, Page: pg}, page(dev, byte(pg))); err != nil {
						t.Error(err)
					}
				}
			}
		})
		eng.Run()
	}
	old := testDevice(eng)
	fillBlocks(old)
	released := slabs(old)
	old.Release()
	next := testDevice(eng)
	fillBlocks(next)
	taken := slabs(next)
	if len(taken) != len(released) {
		t.Fatalf("second device holds %d slabs, the first released %d", len(taken), len(released))
	}
	for s := range taken {
		if !released[s] {
			t.Errorf("second device allocated a slab while %d released ones were spare", len(released))
			break
		}
	}
}
