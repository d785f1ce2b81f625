package appset

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"compstor/internal/apps"
	"compstor/internal/apps/awkx"
	"compstor/internal/apps/bzip2x"
	"compstor/internal/apps/gzipx"
	"compstor/internal/core"
	"compstor/internal/flash"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

// bareBase is Base with the four codecs and gawk bound to no memo: every run
// computes.
func bareBase() *apps.Registry {
	r := Base()
	gzip, gunzip := gzipx.Programs(nil)
	bzip2, bunzip2 := bzip2x.Programs(nil)
	for _, p := range []apps.Program{gzip, gunzip, bzip2, bunzip2, awkx.Gawk{}} {
		r.Register(p)
	}
	return r
}

func memoSystem(reg *apps.Registry, devices int) *core.System {
	return core.NewSystem(core.SystemConfig{
		CompStors: devices,
		Registry:  reg,
		Geometry:  flash.Geometry{Channels: 8, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerPlan: 128, PagesPerBlock: 32, PageSize: 4096},
	})
}

// transcript runs the codec command list on a fresh two-device system over
// reg and returns everything the virtual side can show of it.
func transcript(t *testing.T, reg *apps.Registry) string {
	t.Helper()
	var log strings.Builder
	sys := memoSystem(reg, 2)
	book := textgen.Book(23, 28<<10)
	sys.Go("client", func(p *sim.Proc) {
		run := func(dev int, cmd core.Command) {
			resp, err := sys.Device(dev).Client.Run(p, cmd)
			if err != nil {
				fmt.Fprintf(&log, "%v: transport: %v\n", cmd.Args, err)
				return
			}
			fmt.Fprintf(&log, "dev%d %s %v: %v exit %d in %v, stdout %q stderr %q error %q, now %v\n",
				dev, cmd.Exec+cmd.Script, cmd.Args, resp.Status, resp.ExitCode, resp.Elapsed, resp.Stdout, resp.Stderr, resp.Error, p.Now())
		}
		for dev := range sys.Devices {
			if err := sys.Device(dev).Client.FS().WriteFile(p, "f", book); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < 5; i++ {
			run(0, core.Command{Exec: "gzip", Args: []string{"f"}})
		}
		run(0, core.Command{Exec: "gunzip", Args: []string{"f.gz"}})
		run(0, core.Command{Exec: "bzip2", Args: []string{"f"}})
		run(0, core.Command{Exec: "bunzip2", Args: []string{"f.bz2"}})
		run(0, core.Command{Exec: "gunzip", Stdin: []byte("not gzip")})

		// A hedged pair: the same command on both replicas, the second leg
		// issued late, the first response cancelling the other leg.
		var wg sim.WaitGroup
		tokens := []*apps.CancelToken{{}, {}}
		for leg, delay := range []time.Duration{0, 5 * time.Millisecond} {
			wg.Add(1)
			sys.Go(fmt.Sprintf("leg%d", leg), func(lp *sim.Proc) {
				defer wg.Done()
				lp.Wait(delay)
				resp, err := sys.Device(leg).Client.Run(lp, core.Command{Exec: "gzip", Args: []string{"f"}, Cancel: tokens[leg]})
				tokens[1-leg].Cancel()
				fmt.Fprintf(&log, "leg %d: %v %v at %v\n", leg, resp.Status, err, lp.Now())
			})
		}
		wg.Wait(p)

		// One run killed by its deadline while it reads.
		run(1, core.Command{Exec: "bzip2", Args: []string{"f"}, Deadline: p.Now().Add(400 * time.Microsecond)})

		// gawk: one argv four times, into stdout and into a charged file;
		// then over the file with one line changed; then killed mid-file.
		const freq = `{ for (i = 1; i <= NF; i++) n[$i]++; if (NR % 50 == 0) print NR, length(n) } END { print length(n) }`
		for i := 0; i < 4; i++ {
			run(0, core.Command{Exec: "gawk", Args: []string{freq, "f"}})
			run(0, core.Command{Script: "gawk '" + freq + "' f > g"})
		}
		changed := bytes.Replace(book, []byte("\n"), []byte(" changed\n"), 20)
		if err := sys.Device(0).Client.FS().WriteFile(p, "f", changed); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			run(0, core.Command{Exec: "gawk", Args: []string{freq, "f"}})
		}
		run(0, core.Command{Exec: "gawk", Args: []string{freq, "f"}, Deadline: p.Now().Add(300 * time.Microsecond)})

		for dev, u := range sys.Devices {
			for _, name := range []string{"f", "f.gz", "f.bz2", "g"} {
				data, err := u.Client.FS().ReadFile(p, name)
				fmt.Fprintf(&log, "dev%d %s: %d bytes %x %v\n", dev, name, len(data), crc32.ChecksumIEEE(data), err)
			}
		}
	})
	end := sys.Run()
	sys.Close()
	for dev, u := range sys.Devices {
		fmt.Fprintf(&log, "dev%d ftl %+v nvme %+v\n", dev, u.Drive.FTL().Stats(), u.Drive.Controller().Stats())
	}
	fmt.Fprintf(&log, "end %v\n", end)
	return log.String()
}

// The memo is invisible to the virtual side: a system over Base and one over
// the same programs with bare codecs and gawk produce the same responses,
// files, device statistics and final virtual time.
func TestCodecMemoInvisibleThroughDevice(t *testing.T) {
	with, without := transcript(t, Base()), transcript(t, bareBase())
	if with != without {
		t.Errorf("with the memo:\n%s\nwithout:\n%s", with, without)
	}
	for _, want := range []string{"leg 0: OK", "leg 1: CANCELED", "DEADLINE", "short gzip header", "dev0 f.bz2: ", "f > g []: OK", "gawk: awk: reading f: apps: deadline exceeded"} {
		if !strings.Contains(with, want) {
			t.Errorf("transcript lacks %q:\n%s", want, with)
		}
	}
}

// dispatch runs one `prog f` per entry of devs, one after another.
func dispatch(t *testing.T, sys *core.System, prog string, devs []int, check func(*core.Response)) {
	t.Helper()
	sys.Go("client", func(p *sim.Proc) {
		for _, dev := range devs {
			resp, err := sys.Device(dev).Client.Run(p, core.Command{Exec: prog, Args: []string{"f"}})
			if err != nil {
				t.Error(err)
				return
			}
			check(resp)
		}
	})
	sys.Run()
}

// One system computes each distinct content twice (second sight), however
// many of its devices ask how often; what another registry's devices have
// computed is not shared.
func TestCodecMemoComputesTwicePerSystem(t *testing.T) {
	var calls int
	counting := apps.Codec{ProgName: "rot", Suffix: ".rot", Transform: func(data []byte) ([]byte, error) {
		calls++
		return bytes.ToUpper(data), nil
	}}
	stage := func(sys *core.System) {
		sys.Go("stage", func(p *sim.Proc) {
			for _, u := range sys.Devices {
				if err := u.Client.FS().WriteFile(p, "f", []byte("the same words on every device\n")); err != nil {
					t.Error(err)
				}
			}
		})
		sys.Run()
	}
	ok := func(r *core.Response) {
		if r.Status != core.StatusOK {
			t.Errorf("response %+v", r)
		}
	}
	devs := make([]int, 200)
	for i := range devs {
		devs[i] = i % 4
	}
	reg := apps.NewRegistry()
	reg.Register(apps.NewCodecMemo().Bind(counting))
	sys := memoSystem(reg, 4)
	defer sys.Close()
	stage(sys)
	dispatch(t, sys, "rot", devs, ok)
	if calls != 2 {
		t.Errorf("200 dispatches over 4 devices computed %d times, want 2", calls)
	}

	// A second system over the same registry shares its memo (Clone copies
	// programs by value); one over a codec bound to nothing computes always.
	calls = 0
	sys2 := memoSystem(reg, 1)
	defer sys2.Close()
	stage(sys2)
	dispatch(t, sys2, "rot", []int{0, 0, 0}, ok)
	if calls != 0 {
		t.Errorf("a system over the same registry computed %d times, want 0", calls)
	}
	bare := apps.NewRegistry()
	bare.Register(counting)
	sys3 := memoSystem(bare, 1)
	defer sys3.Close()
	stage(sys3)
	dispatch(t, sys3, "rot", []int{0, 0, 0}, ok)
	if calls != 3 {
		t.Errorf("a bare codec computed %d of 3 runs", calls)
	}
}

// memoOf digs the memo a registered codec or gawk is bound to out of its
// program.
func memoOf(t *testing.T, r *apps.Registry, name string) uintptr {
	t.Helper()
	p, ok := r.Lookup(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	v := reflect.ValueOf(p)
	if c := v.FieldByName("Codec"); c.IsValid() {
		v = c
	}
	return v.FieldByName("memo").Pointer()
}

// The memo's scope is one Base call: its four codecs and gawk share one,
// clones keep it, and another Base has another — nothing is package-level.
func TestCodecMemoScopedToBase(t *testing.T) {
	a, b := Base(), Base()
	memo := memoOf(t, a, "gzip")
	if memo == 0 {
		t.Fatal("Base's gzip is bound to no memo")
	}
	for _, name := range []string{"gunzip", "bzip2", "bunzip2", "gawk"} {
		if memoOf(t, a, name) != memo || memoOf(t, a.Clone(), name) != memo {
			t.Errorf("%s of one Base (or its clone) has a memo of its own", name)
		}
	}
	if memoOf(t, b, "gzip") == memo {
		t.Error("two Base registries share a memo")
	}
}

// What the memo returns is what the kernel would compute now, whatever
// happened to the files in between.
func TestCodecMemoExactThroughFilesystem(t *testing.T) {
	sys := memoSystem(Base(), 1)
	defer sys.Close()
	fs := sys.Device(0).Client.FS()
	book := textgen.Book(5, 12<<10)
	gz, err := gzipx.Compress(book)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *sim.Proc, exec, name string) *core.Response {
		resp, err := sys.Device(0).Client.Run(p, core.Command{Exec: exec, Args: []string{name}})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	sys.Go("client", func(p *sim.Proc) {
		// A corrupt member fails every time, and expands once it is fixed.
		bad := bytes.Clone(gz)
		bad[len(bad)/2] ^= 0x55
		if err := fs.WriteFile(p, "g.gz", bad); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			if r := run(p, "gunzip", "g.gz"); r.ExitCode != 1 || !strings.Contains(r.Error, "gunzip: g.gz: ") {
				t.Errorf("corrupt run %d: %+v", i, r)
			}
		}
		if err := fs.WriteFile(p, "g.gz", gz); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			if r := run(p, "gunzip", "g.gz"); r.ExitCode != 0 {
				t.Errorf("fixed run %d: %+v", i, r)
			}
			if got, err := fs.ReadFile(p, "g"); err != nil || !bytes.Equal(got, book) {
				t.Errorf("fixed run %d: g is %d bytes, %v", i, len(got), err)
			}
		}

		// The stored output is not the file: scribbling over f.gz between
		// runs changes no later result.
		if err := fs.WriteFile(p, "f", book); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 4; i++ {
			if r := run(p, "gzip", "f"); r.ExitCode != 0 {
				t.Errorf("gzip run %d: %+v", i, r)
			}
			if got, err := fs.ReadFile(p, "f.gz"); err != nil || !bytes.Equal(got, gz) {
				t.Errorf("gzip run %d: f.gz is %d bytes, %v; want the kernel's %d", i, len(got), err, len(gz))
			}
			if err := fs.WriteFile(p, "f.gz", bytes.Repeat([]byte{0xEE}, len(gz))); err != nil {
				t.Error(err)
			}
		}
	})
	sys.Run()
}

// An expander names its output by trimming the suffix; given a name without
// one it used to write the expansion over its input and exit 0.
func TestExpandRefusesUnsuffixedName(t *testing.T) {
	book := textgen.Book(9, 4<<10)
	gz, err := gzipx.Compress(book)
	if err != nil {
		t.Fatal(err)
	}
	for exec, packed := range map[string][]byte{"gunzip": gz, "bunzip2": bzip2x.Compress(book, bzip2x.Options{})} {
		sys := memoSystem(Base(), 1)
		fs := sys.Device(0).Client.FS()
		sys.Go("client", func(p *sim.Proc) {
			if err := fs.WriteFile(p, "archive", packed); err != nil {
				t.Error(err)
				return
			}
			resp, err := sys.Device(0).Client.Run(p, core.Command{Exec: exec, Args: []string{"archive"}})
			if err != nil {
				t.Error(err)
				return
			}
			if want := exec + ": archive: unknown suffix -- ignored"; resp.ExitCode != 1 || resp.Error != want {
				t.Errorf("%s archive: exit %d, error %q; want 1, %q", exec, resp.ExitCode, resp.Error, want)
			}
			if got, err := fs.ReadFile(p, "archive"); err != nil || !bytes.Equal(got, packed) {
				t.Errorf("%s archive: the input is now %d bytes (%v), was %d", exec, len(got), err, len(packed))
			}
		})
		sys.Run()
		sys.Close()
	}
}

// Two systems on two goroutines over one registry: the memo is the one
// thing they share, and the race job runs this.
func TestCodecMemoAcrossGoroutines(t *testing.T) {
	reg := Base()
	book := textgen.Book(3, 8<<10)
	want, err := gzipx.Compress(book)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys := memoSystem(reg, 1)
			defer sys.Close()
			fs := sys.Device(0).Client.FS()
			sys.Go("client", func(p *sim.Proc) {
				if err := fs.WriteFile(p, "f", book); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 6; i++ {
					for _, cmd := range [][2]string{{"gzip", "f"}, {"gunzip", "f.gz"}, {"bzip2", "f"}, {"bunzip2", "f.bz2"}} {
						if r, err := sys.Device(0).Client.Run(p, core.Command{Exec: cmd[0], Args: cmd[1:]}); err != nil || r.ExitCode != 0 {
							t.Errorf("%v: %+v, %v", cmd, r, err)
						}
					}
					if got, err := fs.ReadFile(p, "f.gz"); err != nil || !bytes.Equal(got, want) {
						t.Errorf("f.gz is %d bytes, %v", len(got), err)
					}
				}
			})
			sys.Run()
		}()
	}
	wg.Wait()
}

// BenchmarkCodecRun is `gzip f` on a 28 KiB book through the program, beside
// gzipx's BenchmarkCompress: repeat is serve_mix's case (one content, so
// every run after the second is a hit), distinct is batch_apps' (every run
// misses and pays the hash and the look-up on top of the kernel).
func BenchmarkCodecRun(b *testing.B) {
	book := textgen.Book(1, 28<<10)
	for _, mode := range []string{"repeat", "distinct"} {
		b.Run(mode, func(b *testing.B) {
			gzip, _ := Base().Lookup("gzip")
			var out bytes.Buffer
			b.SetBytes(int64(len(book)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := bytes.Clone(book)
				if mode == "distinct" {
					copy(in, fmt.Sprintf("%016d", i))
				}
				out.Reset()
				if err := gzip.Run(&apps.Context{Stdin: bytes.NewReader(in), Stdout: &out}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
