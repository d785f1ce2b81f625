package energy

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"compstor/internal/sim"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) < 1e-9*math.Max(1, math.Abs(b))
}

func TestComponentBasePlusActive(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng)
	c := m.Component("cpu", 10) // 10 W base
	eng.Go("load", func(p *sim.Proc) {
		p.Wait(2 * time.Second)
		c.AddActive(time.Second, 50) // 50 J
		p.Wait(3 * time.Second)
	})
	eng.Run() // 5 virtual seconds
	if got := c.Energy(eng.Now()); !almost(got, 10*5+50) {
		t.Fatalf("energy = %g J, want 100", got)
	}
	if c.BusyTime() != time.Second {
		t.Fatalf("busy = %v", c.BusyTime())
	}
	if got := m.Snapshot()[0].ActiveJ; !almost(got, 50) {
		t.Fatalf("active = %g", got)
	}
}

func TestMeterTotalAndSnapshot(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng)
	a := m.Component("a", 1)
	b := m.Component("b", 2)
	eng.After(4*time.Second, func() {})
	eng.Run()
	a.AddJoules(5)
	b.AddActive(time.Second, 3)
	if got := m.Total(); !almost(got, 4*1+5+4*2+3) {
		t.Fatalf("total = %g, want 20", got)
	}
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Component != "a" || snap[1].Component != "b" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if !almost(snap[0].TotalJ, 9) || !almost(snap[1].TotalJ, 11) {
		t.Fatalf("snapshot values: %+v", snap)
	}
}

func TestComponentIdempotentRegistration(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng)
	a := m.Component("x", 5)
	if m.Component("x", 5) != a {
		t.Fatal("same registration returned a different component")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting base power did not panic")
		}
	}()
	m.Component("x", 6)
}

func TestLookup(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng)
	if m.Lookup("missing") != nil {
		t.Fatal("lookup of unregistered returned non-nil")
	}
	c := m.Component("y", 0)
	if m.Lookup("y") != c {
		t.Fatal("lookup returned wrong component")
	}
}

func TestMeterLink(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng)
	c := m.Component("pcie", 0)
	l := sim.NewLink(eng, "pcie", 1e6, 0) // 1 MB/s
	MeterLink(c, l, 4)                    // 4 W while moving
	eng.Go("dma", func(p *sim.Proc) {
		l.Transfer(p, 2000) // 2 ms
	})
	eng.Run()
	if got := m.Snapshot()[0].ActiveJ; !almost(got, 0.002*4) {
		t.Fatalf("link energy = %g J, want 0.008", got)
	}
}

func TestJoulesPerGB(t *testing.T) {
	if got := JoulesPerGB(100, 1e9); !almost(got, 100) {
		t.Fatalf("JoulesPerGB = %g", got)
	}
	if got := JoulesPerGB(100, 5e8); !almost(got, 200) {
		t.Fatalf("JoulesPerGB = %g", got)
	}
	if JoulesPerGB(100, 0) != 0 {
		t.Fatal("zero volume should yield 0")
	}
}

func TestPicojoulesPerBit(t *testing.T) {
	// 10 pJ/bit for 1 GB = 10e-12 * 8e9 = 0.08 J
	if got := PicojoulesPerBit(10, 1e9); !almost(got, 0.08) {
		t.Fatalf("pJ/bit conversion = %g", got)
	}
}

func TestNegativeChargesPanic(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng)
	c := m.Component("z", 0)
	for name, fn := range map[string]func(){
		"negative duration": func() { c.AddActive(-time.Second, 1) },
		"negative power":    func() { c.AddActive(time.Second, -1) },
		"negative joules":   func() { c.AddJoules(-1) },
		"negative base":     func() { m.Component("neg", -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: energy is additive — charging in k pieces equals charging once.
func TestEnergyAdditivity(t *testing.T) {
	f := func(parts []uint16) bool {
		eng := sim.NewEngine()
		m := NewMeter(eng)
		a := m.Component("a", 0)
		b := m.Component("b", 0)
		var total time.Duration
		for _, ms := range parts {
			d := time.Duration(ms) * time.Microsecond
			a.AddActive(d, 7)
			total += d
		}
		b.AddActive(total, 7)
		return almost(a.Energy(eng.Now()), b.Energy(eng.Now())) // no base draw: all active
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: JoulesPerGB scales inversely with volume.
func TestJoulesPerGBInverse(t *testing.T) {
	f := func(j uint16, n uint32) bool {
		bytes := int64(n) + 1
		a := JoulesPerGB(float64(j), bytes)
		b := JoulesPerGB(float64(j), 2*bytes)
		return almost(a, 2*b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Float addition is not associative, so a total summed in map order differs
// in its last bits from call to call. Total must add in name order.
func TestMeterTotalBitReproducible(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng)
	// Magnitudes twenty orders apart: any other order rounds differently.
	watts := []float64{1e-9, 3.3333333333333335, 1e11, 0.1, 7e-4, 123456.789, 1e-15, 2.5e7, 0.30000000000000004, 9.87654321e3}
	for i, w := range watts {
		c := m.Component(fmt.Sprintf("comp%02d", i), w)
		c.AddActive(time.Duration(i+1)*time.Millisecond, w*1e3)
	}
	eng.Go("tick", func(p *sim.Proc) { p.Wait(1234567 * time.Microsecond) })
	eng.Run()

	var want float64
	for _, s := range m.Snapshot() {
		want += s.TotalJ
	}
	for i := 0; i < 100; i++ {
		if got := m.Total(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: Total() = %b, sum over Snapshot() = %b", i, got, want)
		}
	}
}
