package core

import (
	"bytes"
	"strings"
	"testing"

	"compstor/internal/apps"
	"compstor/internal/apps/appset"
	"compstor/internal/cpu"
	"compstor/internal/flash"
	"compstor/internal/isps"
	"compstor/internal/sim"
	"compstor/internal/ssd"
)

func smallGeometry() flash.Geometry {
	return flash.Geometry{
		Channels:      8,
		DiesPerChan:   1,
		PlanesPerDie:  1,
		BlocksPerPlan: 128,
		PagesPerBlock: 32,
		PageSize:      4096,
	}
}

func newSystem(t *testing.T, devices int, withHost bool) *System {
	t.Helper()
	return NewSystem(SystemConfig{
		CompStors:       devices,
		ConventionalSSD: withHost,
		WithHost:        withHost,
		Registry:        appset.Base(),
		Geometry:        smallGeometry(),
	})
}

func TestMinionLifecycleEndToEnd(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	var m *Minion
	sys.Go("client", func(p *sim.Proc) {
		if err := unit.Client.FS().WriteFile(p, "books/one.txt", []byte("alpha\nbeta\nalpha\n")); err != nil {
			t.Error(err)
			return
		}
		var err error
		m, err = unit.Client.SendMinion(p, Command{
			Exec:       "grep",
			Args:       []string{"-c", "alpha", "books/one.txt"},
			InputFiles: []string{"books/one.txt"},
		})
		if err != nil {
			t.Error(err)
		}
	})
	sys.Run()
	if m == nil || m.Response == nil {
		t.Fatal("no response")
	}
	r := m.Response
	if r.Status != StatusOK || r.ExitCode != 0 {
		t.Fatalf("response %+v", r)
	}
	if strings.TrimSpace(string(r.Stdout)) != "2" {
		t.Fatalf("stdout %q", r.Stdout)
	}
	// Table III ordering: submit <= agent <= start <= finish <= return.
	if !(m.Submitted <= r.AgentReceived && r.AgentReceived <= r.TaskStarted &&
		r.TaskStarted <= r.TaskFinished && r.TaskFinished <= m.Returned) {
		t.Fatalf("lifetime out of order: %+v %+v", m, r)
	}
	if r.Elapsed <= 0 || m.RoundTrip() < r.Elapsed {
		t.Fatalf("timing: elapsed %v, round trip %v", r.Elapsed, m.RoundTrip())
	}
	if unit.Agent.minions != 1 {
		t.Fatal("agent did not count the minion")
	}
}

func TestMinionMissingInputRejected(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	var resp *Response
	sys.Go("client", func(p *sim.Proc) {
		var err error
		resp, err = unit.Client.Run(p, Command{
			Exec:       "grep",
			Args:       []string{"x", "ghost.txt"},
			InputFiles: []string{"ghost.txt"},
		})
		if err != nil {
			t.Error(err)
		}
	})
	sys.Run()
	if resp.Status != StatusRejected {
		t.Fatalf("status = %v, want REJECTED", resp.Status)
	}
}

func TestMinionFailedTask(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	var resp *Response
	sys.Go("client", func(p *sim.Proc) {
		resp, _ = unit.Client.Run(p, Command{Exec: "grep", Args: []string{"pattern", "missing-file"}})
	})
	sys.Run()
	if resp.Status != StatusFailed || resp.ExitCode == 0 {
		t.Fatalf("response %+v", resp)
	}
}

func TestShellScriptMinion(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	var resp *Response
	sys.Go("client", func(p *sim.Proc) {
		unit.Client.FS().WriteFile(p, "data.txt", []byte("x\ny\nx\nz\nx\n"))
		resp, _ = unit.Client.Run(p, Command{Script: `grep -c x data.txt`})
	})
	sys.Run()
	if resp.Status != StatusOK || strings.TrimSpace(string(resp.Stdout)) != "3" {
		t.Fatalf("script response %+v (%q)", resp, resp.Stdout)
	}
}

func TestStatusQuery(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	var st StatusReport
	sys.Go("client", func(p *sim.Proc) {
		var err error
		st, err = unit.Client.Status(p)
		if err != nil {
			t.Error(err)
		}
	})
	sys.Run()
	if st.Cores != 4 {
		t.Fatalf("status %+v", st)
	}
	if st.TemperatureC <= 0 {
		t.Fatal("no temperature reported")
	}
	if len(st.Programs) == 0 {
		t.Fatal("no programs reported")
	}
}

func TestDynamicTaskLoadingOverWire(t *testing.T) {
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	var before, after *Response
	sys.Go("client", func(p *sim.Proc) {
		before, _ = unit.Client.Run(p, Command{Exec: "linecount", Stdin: []byte("a\nb\n")})
		err := unit.Client.LoadTask(p, apps.Func{
			ProgName:  "linecount",
			CostClass: cpu.ClassWC,
			Body: func(ctx *apps.Context, args []string) error {
				data := new(bytes.Buffer)
				data.ReadFrom(ctx.In())
				n := bytes.Count(data.Bytes(), []byte{'\n'})
				ctx.Stdout.Write([]byte(itoa(n) + "\n"))
				return nil
			},
		}, 512<<10)
		if err != nil {
			t.Error(err)
			return
		}
		after, _ = unit.Client.Run(p, Command{Exec: "linecount", Stdin: []byte("a\nb\nc\n")})
	})
	sys.Run()
	if before.ExitCode != 127 {
		t.Fatalf("program existed before load: %+v", before)
	}
	if after.Status != StatusOK || strings.TrimSpace(string(after.Stdout)) != "3" {
		t.Fatalf("after load: %+v (%q)", after, after.Stdout)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestConcurrentMinionsAcrossDevices(t *testing.T) {
	sys := newSystem(t, 4, false)
	payload := bytes.Repeat([]byte("needle in haystack\n"), 2000)
	results := make([]string, 4)
	for i := 0; i < 4; i++ {
		i := i
		unit := sys.Device(i)
		sys.Go("client", func(p *sim.Proc) {
			unit.Client.FS().WriteFile(p, "f.txt", payload)
			resp, err := unit.Client.Run(p, Command{Exec: "grep", Args: []string{"-c", "needle", "f.txt"}})
			if err != nil {
				t.Errorf("dev %d: %v", i, err)
				return
			}
			results[i] = strings.TrimSpace(string(resp.Stdout))
		})
	}
	sys.Run()
	for i, r := range results {
		if r != "2000" {
			t.Fatalf("device %d result %q", i, r)
		}
	}
}

func TestHostBaselineRunsSamePrograms(t *testing.T) {
	sys := newSystem(t, 0, true)
	var res isps.TaskResult
	sys.Go("host", func(p *sim.Proc) {
		view := sys.Conventional.HostView()
		view.WriteFile(p, "f.txt", []byte("one\ntwo\nthree\n"))
		view.Flush(p) // the host runner mounts its own view of the same FS
		res = sys.Host.Run(p, isps.TaskSpec{Exec: "wc", Args: []string{"-l", "f.txt"}})
	})
	sys.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !strings.Contains(string(res.Stdout), "3") {
		t.Fatalf("stdout %q", res.Stdout)
	}
}

func TestEnergyAttribution(t *testing.T) {
	sys := newSystem(t, 1, true)
	unit := sys.Device(0)
	payload := bytes.Repeat([]byte("energy measurement text\n"), 4000)
	sys.Go("client", func(p *sim.Proc) {
		unit.Client.FS().WriteFile(p, "f.txt", payload)
		unit.Client.Run(p, Command{Exec: "grep", Args: []string{"-c", "text", "f.txt"}})
	})
	sys.Run()
	activeJ := map[string]float64{}
	for _, s := range sys.Meter.Snapshot() {
		activeJ[s.Component] = s.ActiveJ
	}
	ispsJ, ok := activeJ["compstor0/isps"]
	if !ok {
		t.Fatal("no ISPS energy component")
	}
	if ispsJ <= 0 {
		t.Fatal("in-situ task charged no compute energy")
	}
	hostJ, ok := activeJ["host/cpu"]
	if !ok {
		t.Fatal("no host component")
	}
	if hostJ != 0 {
		t.Fatal("idle host charged active energy")
	}
}

func TestResultOnlyTrafficReduction(t *testing.T) {
	// The paper's core traffic argument: in-situ grep moves only the
	// command and the result over PCIe, not the data.
	sys := newSystem(t, 1, false)
	unit := sys.Device(0)
	payload := bytes.Repeat([]byte("the quick brown fox\n"), 10_000) // ~200 KB
	var staged int64
	sys.Go("client", func(p *sim.Proc) {
		unit.Client.FS().WriteFile(p, "f.txt", payload)
		unit.Client.FS().Flush(p) // land staging traffic before snapshotting
		staged = unit.Drive.Controller().Stats().BytesFromHo
		unit.Client.Run(p, Command{Exec: "grep", Args: []string{"-c", "fox", "f.txt"}})
	})
	sys.Run()
	st := unit.Drive.Controller().Stats()
	queryBytes := st.BytesFromHo - staged
	if queryBytes > 2048 {
		t.Fatalf("minion shipped %d bytes to the device; should be command-sized", queryBytes)
	}
	if st.BytesToHost > 4096 {
		t.Fatalf("minion returned %d bytes; should be result-sized", st.BytesToHost)
	}
}

func TestCommandWireSize(t *testing.T) {
	small := Command{Exec: "grep", Args: []string{"-c", "x", "f"}}
	big := Command{Exec: "grep", Stdin: bytes.Repeat([]byte{1}, 10_000)}
	if small.WireSize() < 32 || small.WireSize() > 1024 {
		t.Fatalf("small command wire size %d", small.WireSize())
	}
	if big.WireSize() < 10_000 {
		t.Fatalf("stdin not accounted in wire size: %d", big.WireSize())
	}
}

func TestTaskStatusStrings(t *testing.T) {
	for s, want := range map[TaskStatus]string{
		StatusOK: "OK", StatusFailed: "FAILED", StatusRejected: "REJECTED", TaskStatus(9): "UNKNOWN",
	} {
		if s.String() != want {
			t.Errorf("%d -> %q want %q", s, s.String(), want)
		}
	}
}

// TestStockDeviceSplitsLargeScans: the stock CompStor — no executor setting
// at all — splits a 1 MiB scan across its four cores, and prints what the
// paper's one-core executor (ScanChunks 1) prints.
func TestStockDeviceSplitsLargeScans(t *testing.T) {
	data := bytes.Repeat([]byte("a line of the text to scan\n"), (1<<20)/27+1)
	run := func(scanChunks int) (string, isps.ParScanStats) {
		sys := NewSystem(SystemConfig{CompStors: 1, Registry: appset.Base(), Ablation: ssd.Ablation{ScanChunks: scanChunks}})
		unit := sys.Device(0)
		var out string
		sys.Go("client", func(p *sim.Proc) {
			if err := unit.Client.FS().WriteFile(p, "big.txt", data); err != nil {
				t.Error(err)
				return
			}
			resp, err := unit.Client.Run(p, Command{Exec: "grep", Args: []string{"-c", "text", "big.txt"}})
			if err != nil || resp.Status != StatusOK {
				t.Errorf("grep: %v %+v", err, resp)
				return
			}
			out = string(resp.Stdout)
		})
		sys.Run()
		sys.Close()
		return out, unit.Drive.ISPS().ParScanStats()
	}
	split, st := run(0)
	serial, _ := run(1)
	if st.Tasks != 1 || st.Chunks != 4 {
		t.Errorf("stock device: %+v, want 1 task in 4 chunks", st)
	}
	if split != serial || serial != "38837\n" {
		t.Errorf("split printed %q, serial %q", split, serial)
	}
}

// TestAblationsEndToEnd sets each ssd.Ablation field alone through
// NewSystem. The four in-situ ones leave a grep -c minion's stdout as the
// stock drive prints it and change how long the minion takes. LinearFTL,
// which NewSystem copies to the conventional drive too, keeps the data it
// stores and writes it sequentially at a lower throughput.
func TestAblationsEndToEnd(t *testing.T) {
	data := bytes.Repeat([]byte("a line of the text to scan\n"), (1<<20)/27+1)
	grep := func(ab ssd.Ablation) (string, sim.Duration) {
		sys := NewSystem(SystemConfig{CompStors: 1, Registry: appset.Base(), Ablation: ab})
		defer sys.Close()
		unit := sys.Device(0)
		var out string
		var elapsed sim.Duration
		sys.Go("client", func(p *sim.Proc) {
			if err := unit.Client.FS().WriteFile(p, "big.txt", data); err != nil {
				t.Error(err)
				return
			}
			start := p.Now()
			resp, err := unit.Client.Run(p, Command{Exec: "grep", Args: []string{"-c", "text", "big.txt"}})
			if err != nil || resp.Status != StatusOK {
				t.Errorf("%+v: grep: %v %+v", ab, err, resp)
				return
			}
			out, elapsed = string(resp.Stdout), p.Now().Sub(start)
		})
		sys.Run()
		return out, elapsed
	}
	stockOut, stockTime := grep(ssd.Ablation{})
	for _, ab := range []ssd.Ablation{{SerialReads: true}, {ScanChunks: 1}, {SharedCores: true}, {ViaNVMePath: true}} {
		if out, elapsed := grep(ab); out != stockOut || elapsed == stockTime {
			t.Errorf("%+v: printed %q in %v, the stock drive %q in %v", ab, out, elapsed, stockOut, stockTime)
		}
	}

	const chunk = 64 // pages per write command
	payload := data[:1<<20]
	write := func(ab ssd.Ablation) ([]byte, sim.Duration) {
		sys := NewSystem(SystemConfig{ConventionalSSD: true, Registry: appset.Base(), Geometry: smallGeometry(), Ablation: ab})
		defer sys.Close()
		drv, ps := sys.Conventional.Driver(), sys.Conventional.PageSize()
		var back []byte
		var elapsed sim.Duration
		sys.Go("writer", func(p *sim.Proc) {
			start := p.Now()
			for off := 0; off < len(payload); off += chunk * ps {
				if err := drv.Write(p, int64(off/ps), payload[off:off+chunk*ps]); err != nil {
					t.Error(err)
					return
				}
			}
			elapsed = p.Now().Sub(start)
			back = make([]byte, len(payload))
			if err := drv.ReadInto(p, 0, back); err != nil {
				t.Error(err)
			}
		})
		sys.Run()
		return back, elapsed
	}
	striped, stripedTime := write(ssd.Ablation{})
	linear, linearTime := write(ssd.Ablation{LinearFTL: true})
	if !bytes.Equal(striped, payload) || !bytes.Equal(linear, payload) {
		t.Error("a conventional drive read back other bytes than it was written")
	}
	if linearTime <= stripedTime {
		t.Errorf("linear FTL wrote 1 MiB in %v, the striped one in %v", linearTime, stripedTime)
	}
}
