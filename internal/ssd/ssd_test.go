package ssd

import (
	"bytes"
	"testing"
	"time"

	"compstor/internal/apps/appset"
	"compstor/internal/flash"
	"compstor/internal/isps"
	"compstor/internal/nvme"
	"compstor/internal/pcie"
	"compstor/internal/sim"
)

func smallGeometry() flash.Geometry {
	return flash.Geometry{
		Channels:      8,
		DiesPerChan:   1,
		PlanesPerDie:  1,
		BlocksPerPlan: 64,
		PagesPerBlock: 32,
		PageSize:      4096,
	}
}

func newRig(t testing.TB, insitu bool) (*sim.Engine, *SSD) {
	t.Helper()
	eng := sim.NewEngine()
	fabric := pcie.NewFabric(eng)
	var cfg Config
	if insitu {
		cfg = CompStorConfig("cs0", appset.Base())
	} else {
		cfg = DefaultConfig("ssd0")
	}
	cfg.Geometry = smallGeometry()
	return eng, New(eng, fabric.AddPort(), cfg)
}

// newSerialRig is an in-situ drive on the serial-read ablation: ISPS reads go
// straight to the FTL, with no cache in between.
func newSerialRig(t testing.TB) (*sim.Engine, *SSD) {
	eng := sim.NewEngine()
	cfg := CompStorConfig("cs0", appset.Base())
	cfg.Geometry = smallGeometry()
	cfg.Ablation.SerialReads = true
	return eng, New(eng, pcie.NewFabric(eng).AddPort(), cfg)
}

func TestHostReadWriteThroughNVMe(t *testing.T) {
	eng, drive := newRig(t, false)
	drv := drive.Driver()
	payload := bytes.Repeat([]byte{0xA5}, 16*4096)
	eng.Go("host", func(p *sim.Proc) {
		if err := drv.Write(p, 100, payload); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got, err := drv.Read(p, 100, 16)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("data corrupted through full stack")
		}
	})
	eng.Run()
	if drive.FTL().Stats().HostWrites != 16 {
		t.Fatalf("ftl stats: %+v", drive.FTL().Stats())
	}
}

func TestMultiPageReadExploitsChannels(t *testing.T) {
	// Reading 32 striped pages must be far faster than 32x a single page
	// read (channel parallelism through forEachPage).
	eng, drive := newRig(t, false)
	drv := drive.Driver()
	var oneStart, oneEnd, bigStart, bigEnd sim.Time
	eng.Go("host", func(p *sim.Proc) {
		drv.Write(p, 0, bytes.Repeat([]byte{1}, 32*4096))
		oneStart = p.Now()
		drv.Read(p, 0, 1)
		oneEnd = p.Now()
		bigStart = p.Now()
		drv.Read(p, 0, 32)
		bigEnd = p.Now()
	})
	eng.Run()
	one := oneEnd.Sub(oneStart)
	big := bigEnd.Sub(bigStart)
	if big > 8*one {
		t.Fatalf("32-page read took %v vs single %v; no parallelism", big, one)
	}
}

func TestHostViewAndISPSViewShareFiles(t *testing.T) {
	eng, drive := newRig(t, true)
	hostView := drive.HostView()
	content := bytes.Repeat([]byte("shared content "), 1000)
	var got []byte
	eng.Go("host", func(p *sim.Proc) {
		if err := hostView.WriteFile(p, "input.txt", content); err != nil {
			t.Error(err)
			return
		}
		hostView.Flush(p) // fsync barrier before the other view reads
		// The ISPS view reads what the host wrote, through the direct path.
		data, err := drive.ISPSView().ReadFile(p, "input.txt")
		if err != nil {
			t.Error(err)
			return
		}
		got = data
	})
	eng.Run()
	if !bytes.Equal(got, content) {
		t.Fatal("ISPS view did not see host-written file")
	}
}

func TestISPSDirectPathFasterThanHostPath(t *testing.T) {
	eng, drive := newRig(t, true)
	hostView := drive.HostView()
	content := bytes.Repeat([]byte("x"), 512*1024)
	var hostTime, ispsTime sim.Duration
	eng.Go("host", func(p *sim.Proc) {
		hostView.WriteFile(p, "f", content)
		hostView.Flush(p)
		start := p.Now()
		if _, err := hostView.ReadFile(p, "f"); err != nil {
			t.Error(err)
			return
		}
		hostTime = p.Now().Sub(start)
		start = p.Now()
		if _, err := drive.ISPSView().ReadFile(p, "f"); err != nil {
			t.Error(err)
			return
		}
		ispsTime = p.Now().Sub(start)
	})
	eng.Run()
	if ispsTime >= hostTime {
		t.Fatalf("ISPS path (%v) not faster than host path (%v)", ispsTime, hostTime)
	}
}

func TestViaNVMeAblationSlower(t *testing.T) {
	elapsed := func(via bool) sim.Duration {
		eng := sim.NewEngine()
		fabric := pcie.NewFabric(eng)
		cfg := CompStorConfig("cs", appset.Base())
		cfg.Geometry = smallGeometry()
		cfg.Ablation.ViaNVMePath = via
		drive := New(eng, fabric.AddPort(), cfg)
		content := bytes.Repeat([]byte("y"), 256*1024)
		var d sim.Duration
		eng.Go("host", func(p *sim.Proc) {
			hv := drive.HostView()
			hv.WriteFile(p, "f", content)
			hv.Flush(p)
			start := p.Now()
			if _, err := drive.ISPSView().ReadFile(p, "f"); err != nil {
				t.Error(err)
				return
			}
			d = p.Now().Sub(start)
		})
		eng.Run()
		return d
	}
	direct, via := elapsed(false), elapsed(true)
	if direct >= via {
		t.Fatalf("direct path (%v) not faster than via-NVMe ablation (%v)", direct, via)
	}
	if via < 2*direct {
		t.Fatalf("ablation gap too small: direct %v via %v", direct, via)
	}
}

func TestSharedCoresAblationWiring(t *testing.T) {
	eng := sim.NewEngine()
	fabric := pcie.NewFabric(eng)
	cfg := CompStorConfig("cs", appset.Base())
	cfg.Geometry = smallGeometry()
	cfg.Ablation.SharedCores = true
	drive := New(eng, fabric.AddPort(), cfg)
	if drive.ISPS().Cores() != drive.ctrlCPU {
		t.Fatal("shared-core ablation did not share the controller CPU")
	}
}

func TestInSituTaskOverSharedFS(t *testing.T) {
	eng, drive := newRig(t, true)
	hostView := drive.HostView()
	var out string
	eng.Go("host", func(p *sim.Proc) {
		hostView.WriteFile(p, "log", []byte("a\nerror 1\nb\nerror 2\nerror 3\n"))
		hostView.Flush(p)
		res := drive.ISPS().Spawn(p, isps.TaskSpec{Exec: "grep", Args: []string{"-c", "error", "log"}})
		if res.Err != nil {
			t.Errorf("task: %v", res.Err)
			return
		}
		out = string(res.Stdout)
	})
	eng.Run()
	if out != "3\n" {
		t.Fatalf("in-situ grep output %q", out)
	}
}

func TestVendorWithoutHandlerFails(t *testing.T) {
	eng, drive := newRig(t, false)
	drv := drive.Driver()
	eng.Go("host", func(p *sim.Proc) {
		comp := drv.Submit(p, &nvme.Command{Op: nvme.OpVendorQuery})
		if comp.Status == nvme.StatusOK {
			t.Error("vendor command on conventional drive succeeded")
		}
	})
	eng.Run()
}

func TestTrimThroughStack(t *testing.T) {
	eng, drive := newRig(t, false)
	drv := drive.Driver()
	eng.Go("host", func(p *sim.Proc) {
		drv.Write(p, 5, bytes.Repeat([]byte{9}, 4096))
		if err := drv.Trim(p, 5, 1); err != nil {
			t.Errorf("trim: %v", err)
		}
		got, _ := drv.Read(p, 5, 1)
		if got[0] != 0 {
			t.Error("trimmed page not zeroed")
		}
	})
	eng.Run()
	if drive.FTL().Stats().Trims != 1 {
		t.Fatal("trim not recorded")
	}
}

func TestControllerOverheadCharged(t *testing.T) {
	eng, drive := newRig(t, false)
	drv := drive.Driver()
	eng.Go("host", func(p *sim.Proc) {
		drv.Read(p, 0, 1)
	})
	eng.Run()
	if drive.ctrlCPU.BusyTime() < 8*time.Microsecond {
		t.Fatalf("controller CPU busy %v, want >= 8µs", drive.ctrlCPU.BusyTime())
	}
}

func TestSustainedOverwriteTriggersGCThroughStack(t *testing.T) {
	eng, drive := newRig(t, false)
	drv := drive.Driver()
	eng.Go("host", func(p *sim.Proc) {
		buf := bytes.Repeat([]byte{3}, 8*4096)
		// Overwrite a small region repeatedly, exceeding raw capacity.
		total := drive.Flash().Geometry().Pages() * 2 / 8
		for i := int64(0); i < total; i++ {
			if err := drv.Write(p, (i%4)*8, buf); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	})
	eng.Run()
	if drive.FTL().Stats().GCRuns == 0 {
		t.Fatal("GC never ran under sustained overwrites")
	}
}

// A k-page write through the ISPS device of a ViaNVMePath drive loops
// through the protocol front-end: k × (25 µs + ctrlCmdOverhead) plus k
// programs one after another. The stock device fans the same pages out
// across the channels. Both read back what they wrote.
func TestViaNVMeAblationWritesSerially(t *testing.T) {
	const k = 8
	write := func(via bool) (took, program sim.Duration) {
		eng := sim.NewEngine()
		cfg := CompStorConfig("cs", appset.Base())
		cfg.Geometry = smallGeometry()
		cfg.Ablation.ViaNVMePath = via
		drive := New(eng, pcie.NewFabric(eng).AddPort(), cfg)
		bd := drive.ispsBlockDevice()
		ps := drive.PageSize()
		data := make([]byte, k*ps)
		for i := range data {
			data[i] = byte(i / ps * 7)
		}
		eng.Go("t", func(p *sim.Proc) {
			start := p.Now()
			if err := drive.FTL().WritePage(p, 100, data[:ps]); err != nil { // one idle program
				t.Error(err)
				return
			}
			program = p.Now().Sub(start)
			start = p.Now()
			if err := bd.WritePages(p, 0, data); err != nil {
				t.Error(err)
				return
			}
			took = p.Now().Sub(start)
			got, err := bd.ReadPages(p, 0, k)
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("via=%v: read back differs (%v)", via, err)
			}
		})
		eng.Run()
		return took, program
	}
	via, program := write(true)
	if want := k * (25*time.Microsecond + ctrlCmdOverhead + program); via != want {
		t.Errorf("via-NVMe write of %d pages took %v, want %d × (25µs + %v + %v) = %v", k, via, k, ctrlCmdOverhead, program, want)
	}
	if stock, _ := write(false); stock >= ispsDriverLatency+2*program {
		t.Errorf("stock write of %d pages took %v, want them fanned out: under %v", k, stock, ispsDriverLatency+2*program)
	}
}
