package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"compstor/internal/apps"
	"compstor/internal/apps/awkx"
	"compstor/internal/apps/bzip2x"
	"compstor/internal/apps/coreutils"
	"compstor/internal/apps/grepx"
	"compstor/internal/apps/gzipx"
	"compstor/internal/flash"
	"compstor/internal/ftl"
	"compstor/internal/minfs"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

// The isolated timings call one layer's public entry points with nothing
// else of the stack underneath or on top, so a change to that layer shows
// here undiluted. They are host-clock numbers on a fixed input (they do not
// depend on the workload or the seed), each the best of three short runs.

const (
	isoSeed  = 2018
	isoText  = 2 << 20 // bytes of text the kernels chew at scale 1
	isoTries = 3
)

// bestOf runs fn isoTries times and returns the shortest wall time and the
// heap allocations of that shortest run.
func bestOf(fn func()) (best time.Duration, mallocs uint64) {
	for i := 0; i < isoTries; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if i == 0 || d < best {
			best, mallocs = d, m1.Mallocs-m0.Mallocs
		}
	}
	return best, mallocs
}

func hostMBps(n int, d time.Duration) float64 { return float64(n) / d.Seconds() / 1e6 }

// runProgram runs a program as a pure stream filter: stdin to stdout, no
// filesystem and no cost model attached.
func runProgram(prog apps.Program, in []byte, args ...string) {
	ctx := &apps.Context{Stdin: bytes.NewReader(in), Stdout: io.Discard, Stderr: io.Discard, Class: prog.Class()}
	if err := prog.Run(ctx, args); err != nil {
		panic(fmt.Sprintf("bench: isolated %s: %v", prog.Name(), err))
	}
}

// memDevice is a minfs.BlockDevice that costs no virtual time and keeps its
// pages in a map: what is left when minfs is timed through it is minfs.
type memDevice struct {
	pageSize int
	pages    map[int64][]byte
}

func (d *memDevice) PageSize() int { return d.pageSize }
func (d *memDevice) Pages() int64  { return 1 << 20 }

func (d *memDevice) ReadPages(p *sim.Proc, lpn, count int64) ([]byte, error) {
	out := make([]byte, int(count)*d.pageSize)
	for i := int64(0); i < count; i++ {
		copy(out[int(i)*d.pageSize:], d.pages[lpn+i])
	}
	return out, nil
}

func (d *memDevice) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	for i := 0; i*d.pageSize < len(data); i++ {
		d.pages[lpn+int64(i)] = append([]byte(nil), data[i*d.pageSize:(i+1)*d.pageSize]...)
	}
	return nil
}

func (d *memDevice) TrimPages(p *sim.Proc, lpn, count int64) error {
	for i := int64(0); i < count; i++ {
		delete(d.pages, lpn+i)
	}
	return nil
}

// isolatedLayers times each layer alone. scale shrinks the inputs and
// operation counts: 1 from the command line, small in the smoke test.
func isolatedLayers(scale float64) values {
	out := values{}
	size := int(isoText * scale)
	text := textgen.Book(isoSeed, size)

	d, _ := bestOf(func() { textgen.Book(isoSeed, size) })
	out["textgen.host_mbps"] = hostMBps(len(text), d)

	// Application kernels as stream filters.
	d, _ = bestOf(func() { runProgram(grepx.Grep{}, text, "-c", "the") })
	out["grepx.host_mbps"] = hostMBps(len(text), d)
	d, _ = bestOf(func() { runProgram(coreutils.WC{}, text) })
	out["coreutils.wc_host_mbps"] = hostMBps(len(text), d)
	awkText := text[:len(text)/4]
	d, m := bestOf(func() { runProgram(awkx.Gawk{}, awkText, wordFreq) })
	out["awkx.host_mbps"] = hostMBps(len(awkText), d)
	out["awkx.allocs_per_kb"] = float64(m) / (float64(len(awkText)) / 1024)

	var gz []byte
	d, m = bestOf(func() {
		var err error
		if gz, err = gzipx.Compress(text); err != nil {
			panic(err)
		}
	})
	out["gzipx.comp_host_mbps"] = hostMBps(len(text), d)
	out["gzipx.allocs_per_kb"] = float64(m) / (float64(len(text)) / 1024)
	d, _ = bestOf(func() {
		if _, err := gzipx.Decompress(gz); err != nil {
			panic(err)
		}
	})
	out["gzipx.decomp_host_mbps"] = hostMBps(len(text), d)

	bzText := text[:len(text)/2]
	var bz []byte
	d, _ = bestOf(func() { bz = bzip2x.Compress(bzText, bzip2x.Options{}) })
	out["bzip2x.comp_host_mbps"] = hostMBps(len(bzText), d)
	d, _ = bestOf(func() {
		if _, err := bzip2x.Decompress(bz); err != nil {
			panic(err)
		}
	})
	out["bzip2x.decomp_host_mbps"] = hostMBps(len(bzText), d)

	// The simulation kernel: 64 processes each waiting 4000 times for
	// staggered durations, so events interleave through the queue and every
	// wake-up is a process switch.
	const procs = 64
	waits := int(4000 * scale)
	d, _ = bestOf(func() {
		eng := sim.NewEngine()
		for i := 0; i < procs; i++ {
			step := time.Duration(100+7*i) * time.Nanosecond
			eng.Go("p", func(p *sim.Proc) {
				for w := 0; w < waits; w++ {
					p.Wait(step)
				}
			})
		}
		eng.Run()
		eng.Shutdown()
	})
	out["sim.host_ns_per_event"] = float64(d.Nanoseconds()) / float64(procs*waits)

	// The flash array: program then read every page of four blocks on each
	// channel, sixteen processes at once.
	geo := churnGeometry
	geo.BlocksPerPlan = int(float64(geo.BlocksPerPlan)*scale + 0.5)
	if geo.BlocksPerPlan < 8 {
		geo.BlocksPerPlan = 8
	}
	d, _ = bestOf(func() {
		eng := sim.NewEngine()
		dev := flash.NewDevice(eng, "iso", geo, flash.DefaultTiming())
		page := make([]byte, geo.PageSize)
		for ch := 0; ch < geo.Channels; ch++ {
			ch := ch
			eng.Go("io", func(p *sim.Proc) {
				for pass := 0; pass < 2; pass++ {
					for blk := 0; blk < 4; blk++ {
						for pg := 0; pg < geo.PagesPerBlock; pg++ {
							a := flash.Addr{Channel: ch, Block: blk, Page: pg}
							var err error
							if pass == 0 {
								err = dev.ProgramPage(p, a, page)
							} else {
								_, err = dev.ReadPage(p, a)
							}
							if err != nil {
								panic(err)
							}
						}
					}
				}
			})
		}
		eng.Run()
		eng.Shutdown()
	})
	out["flash.host_ns_per_op"] = float64(d.Nanoseconds()) / float64(geo.Channels*2*4*geo.PagesPerBlock)

	// The translation layer: fill three quarters of a small drive, then
	// overwrite as many pages again at a stride, so garbage collection runs.
	var ftlWrites int64
	d, _ = bestOf(func() {
		eng := sim.NewEngine()
		f := ftl.New(flash.NewDevice(eng, "iso", geo, flash.DefaultTiming()), ftl.DefaultConfig())
		n := f.LogicalPages() * 3 / 4
		ftlWrites = 2 * n
		page := make([]byte, geo.PageSize)
		eng.Go("w", func(p *sim.Proc) {
			for i := int64(0); i < ftlWrites; i++ {
				if err := f.WritePage(p, (i*7919)%n, page); err != nil {
					panic(err)
				}
			}
		})
		eng.Run()
		eng.Shutdown()
	})
	out["ftl.host_ns_per_write"] = float64(d.Nanoseconds()) / float64(ftlWrites)

	// The filesystem over a free block device: write files, read them back.
	fsData := text[:len(text)/2]
	d, _ = bestOf(func() {
		eng := sim.NewEngine()
		dev := &memDevice{pageSize: 4096, pages: map[int64][]byte{}}
		view := minfs.NewView(minfs.NewFS(dev.PageSize(), dev.Pages()), dev)
		eng.Go("fs", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("f%d", i)
				if err := view.WriteFile(p, name, fsData); err != nil {
					panic(err)
				}
				if _, err := view.ReadFile(p, name); err != nil {
					panic(err)
				}
			}
		})
		eng.Run()
		eng.Shutdown()
	})
	out["minfs.host_mbps"] = hostMBps(2*8*len(fsData), d)
	return out
}
