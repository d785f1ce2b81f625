package appset

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/apps/bzip2x"
	"compstor/internal/core"
	"compstor/internal/cpu"
	"compstor/internal/flash"
	"compstor/internal/isps"
	"compstor/internal/minfs"
	"compstor/internal/sim"
)

// TestCodecReadsOnceAtFileSize: a codec reads its input file in one Read at
// the file's size, so it is charged one read of the whole file, and the
// device reads each of the file's pages once — on the ISPS, through the
// flash driver, and on the Xeon host, through NVMe. (io.ReadAll read a
// 28 KiB file in 14 growing Reads, each a device read of its pages.)
func TestCodecReadsOnceAtFileSize(t *testing.T) {
	reg := bareBase()
	var reads []int64 // what the running codec was charged at its own class
	for _, name := range []string{"gzip", "gunzip", "bzip2", "bunzip2"} {
		prog, _ := reg.Lookup(name)
		reg.Register(apps.Func{ProgName: "rec-" + name, CostClass: prog.Class(), Body: func(ctx *apps.Context, args []string) error {
			charge := ctx.Charge
			ctx.Charge = func(c cpu.Class, n int64) {
				if c == ctx.Class {
					reads = append(reads, n)
				}
				charge(c, n)
			}
			return prog.Run(ctx, args)
		}})
	}
	sys := core.NewSystem(core.SystemConfig{
		CompStors: 1,
		Registry:  reg,
		WithHost:  true,
		Geometry:  flash.Geometry{Channels: 8, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerPlan: 128, PagesPerBlock: 32, PageSize: 4096},
	})
	defer sys.Close()
	u := sys.Device(0)
	platforms := []struct {
		name string
		view *minfs.View
		run  func(*sim.Proc, isps.TaskSpec) isps.TaskResult
	}{
		{"isps", u.Drive.ISPSView(), u.Drive.ISPS().Spawn},
		{"host", u.Drive.HostView(), sys.Host.Run},
	}
	sys.Go("client", func(p *sim.Proc) {
		for _, size := range []int{0, 1, 4095, 4096, 4097, 28 << 10, 1 << 20} {
			data := patternText(size)
			for _, pl := range platforms {
				if err := pl.view.WriteFile(p, "f", data); err != nil {
					t.Fatal(err)
				}
				if err := pl.view.Flush(p); err != nil {
					t.Fatal(err)
				}
				for _, cmd := range [][2]string{{"gzip", "f"}, {"gunzip", "f.gz"}, {"bzip2", "f"}, {"bunzip2", "f.bz2"}} {
					st, err := pl.view.FS().Stat(cmd[1])
					if err != nil {
						t.Fatal(err)
					}
					var want []int64
					if st.Size > 0 {
						read := st.Size
						if pl.view.Pipelined() { // the read pipeline charges a stream's CPU share
							prog, _ := reg.Lookup(cmd[0])
							read = int64(math.Ceil(float64(read) * cpu.StreamCPUFraction(prog.Class())))
						}
						want = append(want, read)
					}
					if topUp := int64(size) - st.Size; topUp > 0 && (cmd[0] == "gunzip" || cmd[0] == "bunzip2") {
						want = append(want, topUp) // the expanders' compute, charged per plain byte
					}
					reads = nil
					before := u.Drive.FTL().Stats().HostReads
					res := pl.run(p, isps.TaskSpec{Exec: "rec-" + cmd[0], Args: cmd[1:]})
					if res.Err != nil {
						t.Fatalf("%s %s over %d bytes on %s: %v", cmd[0], cmd[1], size, pl.name, res.Err)
					}
					pages := u.Drive.FTL().Stats().HostReads - before
					if !slices.Equal(reads, want) || pages != (st.Size+4095)/4096 {
						t.Errorf("%s %s of %d bytes on %s: charged %v at its class, want %v; %d pages read, want %d",
							cmd[0], cmd[1], st.Size, pl.name, reads, want, pages, (st.Size+4095)/4096)
					}
				}
			}
		}
	})
	sys.Run()
}

// gunzip and bunzip2 stop with exit 1 once their output would pass
// apps.MaxOutput, the ISPS's default task DRAM, and before they hold more
// than it: a small file that expands to 128 MiB costs under 80 MB.
func TestExpandersStopAtOutputLimit(t *testing.T) {
	var gz bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&gz, gzip.BestCompression)
	zeros := make([]byte, 1<<20)
	for i := 0; i < 128; i++ {
		zw.Write(zeros)
	}
	zw.Close()
	bz := bzip2x.Compress(make([]byte, 128<<20), bzip2x.Options{})
	reg := Base()
	for _, c := range []struct {
		prog, name string
		packed     []byte
	}{{"gunzip", "z.gz", gz.Bytes()}, {"bunzip2", "z.bz2", bz}} {
		prog, _ := reg.Lookup(c.prog)
		view := minfs.NewView(minfs.NewFS(4096, 4096), &pageLog{store: map[int64][]byte{}})
		eng := sim.NewEngine()
		eng.Go("run", func(p *sim.Proc) {
			if err := view.WriteFile(p, c.name, c.packed); err != nil {
				t.Fatal(err)
			}
			ctx := &apps.Context{Proc: p, FS: view, Stdout: io.Discard, Stderr: io.Discard, Class: prog.Class()}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := prog.Run(ctx, []string{c.name})
			runtime.ReadMemStats(&after)
			want := c.prog + ": " + c.name + ": output larger than 67108864 bytes"
			if !errors.Is(err, apps.ErrOutputLimit) || apps.ExitCode(err) != 1 || err.Error() != want {
				t.Errorf("%d-byte %s: %v, want exit 1 and %q", len(c.packed), c.name, err, want)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s of a %d-byte file: %.1f MB allocated", c.prog, len(c.packed), float64(alloc)/1e6)
			if alloc > 80e6 {
				t.Errorf("%s allocated %.1f MB before it stopped", c.prog, float64(alloc)/1e6)
			}
		})
		eng.Run()
	}
}
