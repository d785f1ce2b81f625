package ssd

import (
	"bytes"
	"testing"

	"compstor/internal/sim"
)

// A single-page host read allocates nothing: the buffer is the reading
// process's scratch memory, the command and the completion are recycled by
// the driver, and nothing else on the way down to the slab and back may
// allocate.
func TestDriverReadAllocations(t *testing.T) {
	eng, drive := newRig(t, false)
	drv := drive.Driver()
	ps := drive.PageSize()
	eng.Go("host", func(p *sim.Proc) {
		if err := drv.Write(p, 0, bytes.Repeat(pagePattern(7, ps), 16)); err != nil {
			t.Error(err)
			return
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := drv.Read(p, 5, 1); err != nil {
				t.Error(err)
			}
		}); n > 0 {
			t.Errorf("Driver.Read of one page: %v allocs/op, want none", n)
		}
		dst := make([]byte, ps)
		if n := testing.AllocsPerRun(200, func() {
			if err := drv.ReadInto(p, 5, dst); err != nil {
				t.Error(err)
			}
		}); n > 0 {
			t.Errorf("Driver.ReadInto of one page: %v allocs/op, want none", n)
		}
	})
	eng.Run()
}

// A multi-page read fans out without a process, a closure or a span object
// per page: once a drive has built its batch and lanes, a 16-page read on
// the ISPS path allocates nothing, and so does a host NVMe read into the
// process's scratch memory (BenchmarkSSDRead16Pages: 61 allocs/op with a
// worker process per page). One object of slack each: the scheduler's wheel
// slots allocate their backing arrays as they are first reached. The drive
// reads serially, so the ISPS reads reach the batch, not the cache.
func TestReadBatchAllocs(t *testing.T) {
	eng, drive := newSerialRig(t)
	bd := drive.ispsBlockDevice().(*ispsBlockDevice)
	drv := drive.Driver()
	ps := drive.PageSize()
	eng.Go("isps", func(p *sim.Proc) {
		if err := bd.WritePages(p, 0, bytes.Repeat(pagePattern(3, ps), 64)); err != nil {
			t.Error(err)
			return
		}
		dst := make([]byte, 16*ps)
		lpn := int64(0)
		read := func() {
			lpn = (lpn + 7) % 48
			if err := bd.ReadPagesInto(p, lpn, dst); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 4000; i++ { // builds the lanes and takes the scheduler round its wheel a few times
			read()
		}
		if n := testing.AllocsPerRun(100, read); n > 1 {
			t.Errorf("16-page ReadPagesInto on the ISPS path: %v allocs/op, want at most 1", n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := drv.Read(p, 5, 16); err != nil {
				t.Error(err)
			}
		}); n > 1 {
			t.Errorf("Driver.Read of 16 pages: %v allocs/op, want at most 1", n)
		}
	})
	eng.Run()
}

// Driver.Read hands each read of a process the same scratch memory, so a
// reused buffer must never show an earlier read's bytes: a page of 0xAA,
// trimmed, reads back as zeros into the buffer that held it, through the
// one-page path (ftl.ReadPageInto) and the multi-page one (readBatch over
// ftl.StartRead). Two processes reading at once each see their own page.
func TestDriverReadScratchReuseIsInvisible(t *testing.T) {
	for _, pages := range []int64{1, 4} {
		eng, drive := newRig(t, false)
		drv, n := drive.Driver(), int(pages)*drive.PageSize()
		eng.Go("host", func(p *sim.Proc) {
			if err := drv.Write(p, 8, bytes.Repeat([]byte{0xAA}, n)); err != nil {
				t.Error(err)
				return
			}
			first, err := drv.Read(p, 8, pages)
			if err != nil || !bytes.Equal(first, bytes.Repeat([]byte{0xAA}, n)) {
				t.Errorf("%d pages: the written page did not read back (%v)", pages, err)
			}
			if err := drv.Trim(p, 8, pages); err != nil {
				t.Error(err)
				return
			}
			again, err := drv.Read(p, 8, pages)
			if err != nil || &again[0] != &first[0] {
				t.Errorf("%d pages: the second read did not reuse the first's buffer (%v)", pages, err)
				return
			}
			if !bytes.Equal(again, make([]byte, n)) {
				t.Errorf("%d pages: a trimmed page read back an earlier read's bytes", pages)
			}
		})
		eng.Run()
	}

	eng, drive := newRig(t, false)
	drv, ps := drive.Driver(), drive.PageSize()
	eng.Go("writer", func(p *sim.Proc) {
		for lba := int64(1); lba <= 2; lba++ {
			if err := drv.Write(p, lba, bytes.Repeat([]byte{byte(lba)}, ps)); err != nil {
				t.Error(err)
			}
		}
	})
	eng.Run()
	var both sim.WaitGroup
	both.Add(2)
	got := make([][]byte, 3)
	for lba := int64(1); lba <= 2; lba++ {
		eng.Go("reader", func(p *sim.Proc) {
			var err error
			if got[lba], err = drv.Read(p, lba, 1); err != nil {
				t.Error(err)
			}
			both.Done()
			both.Wait(p) // the other read has landed too
			if !bytes.Equal(got[lba], bytes.Repeat([]byte{byte(lba)}, ps)) {
				t.Errorf("reader of lba %d saw another read's page", lba)
			}
		})
	}
	eng.Run()
}

// Whatever a read hands out is the caller's to scribble on, and whatever a
// write was handed is the caller's again once it returns: neither the
// write-back cache, the ISPS read cache nor the flash slabs may share memory
// with either.
func TestDataPathBuffersDoNotAlias(t *testing.T) {
	eng, drive, _ := newPipelineRig(t)
	ps := drive.PageSize()
	want := bytes.Repeat([]byte("compstor"), 3*ps/8+100) // a ragged tail
	scribble := func(b []byte) {
		for i := range b {
			b[i] ^= 0xFF
		}
	}
	eng.Go("t", func(p *sim.Proc) {
		host, isps := drive.HostView(), drive.ISPSView()
		src := append([]byte(nil), want...)
		if err := host.WriteFile(p, "f", src); err != nil {
			t.Error(err)
			return
		}
		scribble(src) // dirty pages still queued in the host's write-back cache
		dirty, err := host.ReadFile(p, "f")
		if err != nil || !bytes.Equal(dirty, want) {
			t.Errorf("write-back cache follows the writer's buffer (%v)", err)
		}
		scribble(dirty) // read while dirty: an overlay copy, not the cached page
		if err := host.Flush(p); err != nil {
			t.Error(err)
		}
		for pass, who := range []string{"cold, from flash", "warm, from the read cache", "warm again"} {
			got, err := isps.ReadFile(p, "f")
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("isps read %d (%s): wrong bytes (%v)", pass, who, err)
			}
			scribble(got)
		}
		if st, _ := drive.ReadCacheStats(); st.Hits == 0 {
			t.Error("the warm reads never hit the read cache: aliasing with it was not exercised")
		}
		for pass := 0; pass < 2; pass++ {
			got, err := host.ReadFile(p, "f")
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("host read %d: wrong bytes (%v)", pass, err)
			}
			scribble(got)
		}
		raw, err := drive.Driver().Read(p, 64, 2) // the file's first pages, below the filesystem
		if err != nil {
			t.Error(err)
		}
		scribble(raw)
		if again, _ := drive.Driver().Read(p, 64, 2); !bytes.Equal(again, want[:2*ps]) {
			t.Error("scribbling on Driver.Read's buffer reached the media")
		}
	})
	eng.Run()
}

func benchmarkSSDRead(b *testing.B, pages int64) {
	eng, drive := newRig(b, false)
	drv := drive.Driver()
	ps := drive.PageSize()
	const span = 1024
	eng.Go("fill", func(p *sim.Proc) {
		if err := drv.Write(p, 0, make([]byte, span*ps)); err != nil {
			b.Error(err)
		}
	})
	eng.Run()
	b.SetBytes(pages * int64(ps))
	b.ReportAllocs()
	eng.Go("host", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := drv.Read(p, (int64(i)*7919)%(span-pages), pages); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	eng.Run()
}

// BenchmarkSSDRead1Pages and BenchmarkSSDRead16Pages time a host NVMe read
// through controller, FTL and flash: the single-page case is ftl_churn's read,
// the 16-page case a filesystem run fanned out across channels.
func BenchmarkSSDRead1Pages(b *testing.B)  { benchmarkSSDRead(b, 1) }
func BenchmarkSSDRead16Pages(b *testing.B) { benchmarkSSDRead(b, 16) }
