// Package energy provides component-level energy accounting for the
// CompStor models.
//
// Each modelled hardware component (host CPU package, ISPS cores, DRAM,
// flash array, PCIe links, ...) registers with a Meter. A component draws a
// constant base (idle) power for the whole simulated run, plus incremental
// active energy charged explicitly as the component does work:
//
//	P_total(t) = P_base + ΔP_active(t)
//
// so Energy(T) = P_base·T + Σ ΔP·busy. This mirrors how the paper measures
// wall power and multiplies by run time, and makes per-gigabyte
// normalisation (the paper's Fig 8 metric) a pure division.
package energy

import (
	"fmt"
	"sort"
	"time"

	"compstor/internal/sim"
)

// Component accumulates energy for one modelled hardware unit.
type Component struct {
	name    string
	baseW   float64 // constant draw while the system is on
	activeJ float64 // incremental energy from work
	busyNS  int64
}

// AddActive charges incremental energy for d of activity at ΔP = watts
// above base power.
func (c *Component) AddActive(d time.Duration, watts float64) {
	if d < 0 {
		panic("energy: negative duration")
	}
	if watts < 0 {
		panic("energy: negative power")
	}
	c.activeJ += d.Seconds() * watts
	c.busyNS += int64(d)
}

// BusyTime returns the total duration charged through AddActive.
func (c *Component) BusyTime() time.Duration { return time.Duration(c.busyNS) }

// Energy returns total joules consumed by time at: base draw plus active
// energy.
func (c *Component) Energy(at sim.Time) float64 {
	return c.baseW*at.Seconds() + c.activeJ
}

// Meter owns a set of components and produces energy reports.
type Meter struct {
	eng   *sim.Engine
	comps map[string]*Component
}

// NewMeter creates a meter bound to the engine's virtual clock.
func NewMeter(eng *sim.Engine) *Meter {
	return &Meter{eng: eng, comps: make(map[string]*Component)}
}

// Component returns the named component, creating it with the given base
// power on first use. Re-registering an existing name with a different base
// power panics: it always indicates two models fighting over one meter.
func (m *Meter) Component(name string, baseWatts float64) *Component {
	if c, ok := m.comps[name]; ok {
		if c.baseW != baseWatts {
			panic(fmt.Sprintf("energy: component %q re-registered with base %g W (was %g W)", name, baseWatts, c.baseW))
		}
		return c
	}
	if baseWatts < 0 {
		panic("energy: negative base power")
	}
	c := &Component{name: name, baseW: baseWatts}
	m.comps[name] = c
	return c
}

// Lookup returns the named component, or nil if it was never registered.
func (m *Meter) Lookup(name string) *Component { return m.comps[name] }

// Snapshot captures per-component energy at the current virtual time,
// sorted by name.
func (m *Meter) Snapshot() []Sample {
	now := m.eng.Now()
	out := make([]Sample, 0, len(m.comps))
	for _, c := range m.comps {
		out = append(out, Sample{
			Component: c.name,
			BaseW:     c.baseW,
			ActiveJ:   c.activeJ,
			TotalJ:    c.Energy(now),
			Busy:      c.BusyTime(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	return out
}

// Sample is one component's energy figures at a point in virtual time.
type Sample struct {
	Component string
	BaseW     float64
	ActiveJ   float64
	TotalJ    float64
	Busy      time.Duration
}

// MeterLink wires a sim.Link's occupancy into a component: every transfer
// charges ΔP = watts for its serialisation time.
func MeterLink(c *Component, l *sim.Link, watts float64) {
	l.SetOnActive(func(d time.Duration) { c.AddActive(d, watts) })
}

// JoulesPerGB normalises an energy figure by a data volume, the paper's
// Fig 8 metric. It returns 0 for non-positive volumes.
func JoulesPerGB(j float64, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return j / (float64(bytes) / 1e9)
}

// PicojoulesPerBit converts a pJ/bit transport cost into joules for n bytes,
// the standard way link energy is quoted.
func PicojoulesPerBit(pj float64, n int64) float64 {
	return pj * 1e-12 * float64(n) * 8
}
