package ftl

import (
	"math/rand"
	"testing"

	"compstor/internal/flash"
	"compstor/internal/sim"
)

func benchFTL(b *testing.B) (*sim.Engine, *FTL) {
	eng := sim.NewEngine()
	geo := flash.Geometry{
		Channels: 16, DiesPerChan: 4, PlanesPerDie: 1,
		BlocksPerPlan: 64, PagesPerBlock: 64, PageSize: 4096,
	}
	dev := flash.NewDevice(eng, "nand", geo, flash.DefaultTiming())
	return eng, New(dev, DefaultConfig())
}

func BenchmarkSequentialWritePages(b *testing.B) {
	eng, f := benchFTL(b)
	data := make([]byte, f.PageSize())
	b.SetBytes(int64(f.PageSize()))
	eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := f.WritePage(p, int64(i)%f.LogicalPages(), data); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	eng.Run()
}

func BenchmarkRandomReadPages(b *testing.B) {
	eng, f := benchFTL(b)
	data := make([]byte, f.PageSize())
	eng.Go("prep", func(p *sim.Proc) {
		for lpn := int64(0); lpn < 512; lpn++ {
			f.WritePage(p, lpn, data)
		}
	})
	eng.Run()
	b.SetBytes(int64(f.PageSize()))
	eng.Go("r", func(p *sim.Proc) {
		lpn := int64(7)
		for i := 0; i < b.N; i++ {
			lpn = (lpn*1103515245 + 12345) % 512
			if lpn < 0 {
				lpn = -lpn
			}
			if _, err := f.ReadPage(p, lpn); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	eng.Run()
}

// churnFTL returns a small drive filled to 80% of its logical space: random
// overwrites then wrap the spare area many times over, so garbage collection
// runs throughout.
func churnFTL(tb testing.TB, eng *sim.Engine) (f *FTL, filled int64) {
	geo := flash.Geometry{
		Channels: 4, DiesPerChan: 2, PlanesPerDie: 1,
		BlocksPerPlan: 16, PagesPerBlock: 64, PageSize: 4096,
	}
	f = New(flash.NewDevice(eng, "nand", geo, flash.DefaultTiming()), DefaultConfig())
	filled = f.LogicalPages() * 8 / 10
	data := make([]byte, f.PageSize())
	eng.Go("fill", func(p *sim.Proc) {
		for lpn := int64(0); lpn < filled; lpn++ {
			if err := f.WritePage(p, lpn, data); err != nil {
				tb.Error(err)
				return
			}
		}
	})
	eng.Run()
	return f, filled
}

// BenchmarkFTLOverwriteGC is the write half of the benchmark's ftl_churn
// workload without the stack above it: one writer overwriting random pages of
// a nearly full drive, GC in the foreground.
func BenchmarkFTLOverwriteGC(b *testing.B) {
	eng := sim.NewEngine()
	f, filled := churnFTL(b, eng)
	data := make([]byte, f.PageSize())
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(int64(f.PageSize()))
	b.ReportAllocs()
	eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := f.WritePage(p, rng.Int63n(filled), data); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	eng.Run()
	b.ReportMetric(f.Stats().WriteAmplification(), "write-amp")
}

// In steady state the FTL's data path allocates nothing: an overwrite programs
// from the caller's buffer into a slab, GC relocates through a recycled page
// buffer, table rows and reverse maps are in place, and a read lands in the
// caller's destination.
func TestSteadyStateOpsDoNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	f, filled := churnFTL(t, eng)
	data, dst := make([]byte, f.PageSize()), make([]byte, f.PageSize())
	rng := rand.New(rand.NewSource(2))
	eng.Go("io", func(p *sim.Proc) {
		// Warm up: every block's slab and reverse map touched, the page free
		// list grown, the free stacks at their high-water capacity.
		for i := int64(0); i < 2*f.geo.Pages(); i++ {
			if err := f.WritePage(p, rng.Int63n(filled), data); err != nil {
				t.Error(err)
				return
			}
		}
		before := f.Stats()
		if n := testing.AllocsPerRun(3000, func() {
			if err := f.WritePage(p, rng.Int63n(filled), data); err != nil {
				t.Error(err)
			}
		}); n != 0 {
			t.Errorf("WritePage overwrite with GC running: %v allocs/op, want 0", n)
		}
		if d := f.Stats().GCRuns - before.GCRuns; d < 10 {
			t.Errorf("only %d GC runs during the measured overwrites: not a GC workload", d)
		}
		if n := testing.AllocsPerRun(1000, func() {
			if err := f.ReadPageInto(p, rng.Int63n(f.LogicalPages()), dst); err != nil { // mapped and unmapped
				t.Error(err)
			}
		}); n != 0 {
			t.Errorf("ReadPageInto: %v allocs/op, want 0", n)
		}
	})
	eng.Run()
}
