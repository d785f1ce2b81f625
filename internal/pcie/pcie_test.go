package pcie

import (
	"testing"
	"time"

	"compstor/internal/sim"
)

func TestSingleDeviceLimitedByPort(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng)
	port := f.AddPort()
	const n = 2_000_000_000 // 2 GB
	var done sim.Time
	eng.Go("dma", func(p *sim.Proc) {
		port.ToHost(p, n)
		done = p.Now()
	})
	eng.Run()
	// 2 GB at 2 GB/s = 1 s on the port, plus 2 GB at 16 GB/s = 0.125 s on
	// the uplink (store and forward), plus both hops' 300 + 500 ns latency.
	want := sim.Time(1125*time.Millisecond + 800*time.Nanosecond)
	if done != want {
		t.Fatalf("DMA finished at %v, want %v", done, want)
	}
	if port.Link().Bytes() != n || f.Uplink().Bytes() != n {
		t.Fatalf("port moved %d bytes, uplink %d, want %d each", port.Link().Bytes(), f.Uplink().Bytes(), int64(n))
	}
}

func TestManyDevicesLimitedByUplink(t *testing.T) {
	// 16 devices each pushing 2 GB: port-limited would take ~1s in
	// parallel, but the 16 GB/s uplink must serialise 32 GB = 2 s.
	eng := sim.NewEngine()
	f := NewFabric(eng)
	const devs = 16
	const per = 2_000_000_000
	var last sim.Time
	for i := 0; i < devs; i++ {
		port := f.AddPort()
		eng.Go("dma", func(p *sim.Proc) {
			port.ToHost(p, per)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	eng.Run()
	min := sim.Time(2 * time.Second)
	if last < min {
		t.Fatalf("aggregate DMA finished at %v; uplink should cap it at >= %v", last, min)
	}
	// Sanity: it shouldn't be wildly slower than the uplink bound either.
	if last > sim.Time(3200*time.Millisecond) {
		t.Fatalf("aggregate DMA finished at %v; too slow for a 16 GB/s uplink", last)
	}
	if got := f.Uplink().Bytes(); got != devs*per {
		t.Fatalf("uplink moved %d bytes, want %d", got, int64(devs*per))
	}
	if len(f.ports) != devs {
		t.Fatalf("Ports = %d", len(f.ports))
	}
}

func TestFromHostDirection(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng)
	port := f.AddPort()
	var upAt, portAt sim.Time
	f.Uplink().SetBusyHook(func(start sim.Time, _ sim.Duration) { upAt = start })
	port.Link().SetBusyHook(func(start sim.Time, _ sim.Duration) { portAt = start })
	eng.Go("dma", func(p *sim.Proc) {
		port.FromHost(p, 1_000_000)
	})
	eng.Run()
	if port.Link().Bytes() != 1_000_000 || f.Uplink().Bytes() != 1_000_000 {
		t.Fatalf("port moved %d bytes, uplink %d, want 1e6 each", port.Link().Bytes(), f.Uplink().Bytes())
	}
	// Host to device crosses the shared uplink first, then the port.
	if upAt != 0 || portAt <= upAt {
		t.Fatalf("uplink busy from %v, port from %v: want the uplink first", upAt, portAt)
	}
}

func TestMessageLatencyOnly(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng)
	port := f.AddPort()
	var done sim.Time
	eng.Go("msg", func(p *sim.Proc) {
		port.Message(p)
		done = p.Now()
	})
	eng.Run()
	if done != sim.Time(800*time.Nanosecond) {
		t.Fatalf("message latency %v, want 800ns", done)
	}
	if f.Uplink().Bytes() != 0 {
		t.Fatal("message consumed uplink bandwidth")
	}
}

func TestPortIdentity(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng)
	a, b := f.AddPort(), f.AddPort()
	if a.ID() != 0 || b.ID() != 1 {
		t.Fatalf("port IDs %d,%d", a.ID(), b.ID())
	}
	if f.ports[1] != b {
		t.Fatal("ports[1] != b")
	}
	if a.Link() == b.Link() {
		t.Fatal("ports share a link")
	}
}
