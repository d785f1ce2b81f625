// Package pcie models the PCIe fabric connecting a host to one or more
// NVMe endpoints: a root complex uplink shared by all devices, a switch,
// and one downstream link per endpoint.
//
// Fig. 1 of the CompStor paper rests on exactly this topology: each SSD sees
// ~2 GB/s at its own port while the host root complex tops out at ~16 GB/s
// (x16), so the host can never ingest the aggregate media bandwidth of a
// dense storage server. Transfers here traverse the endpoint's port link and
// the shared uplink store-and-forward, so uplink contention emerges
// naturally when many devices DMA at once.
package pcie

import (
	"fmt"
	"time"

	"compstor/internal/obs"
	"compstor/internal/sim"
)

// The fabric of the paper's setup (the figures quoted in Fig. 1): a PCIe
// Gen3 x16 root complex shared by all devices and Gen3 x4-class device
// ports.
const (
	// UplinkBytesPerSec is the root-complex bandwidth shared by all devices.
	UplinkBytesPerSec = 16e9
	// PortBytesPerSec is each downstream port's bandwidth (per device).
	PortBytesPerSec = 2e9
	// uplinkLatency is the propagation latency through switch + root complex.
	uplinkLatency = 500 * time.Nanosecond
	// portLatency is each downstream port's propagation latency.
	portLatency = 300 * time.Nanosecond
)

// Fabric is a host root complex plus switch with downstream ports.
type Fabric struct {
	eng    *sim.Engine
	uplink *sim.Link
	ports  []*Port
	obs    *obs.Obs
}

// NewFabric builds a fabric with no ports; attach devices with AddPort.
func NewFabric(eng *sim.Engine) *Fabric {
	return &Fabric{
		eng:    eng,
		uplink: sim.NewLink(eng, "pcie/uplink", UplinkBytesPerSec, uplinkLatency),
	}
}

// Uplink exposes the shared root-complex link (for energy metering and
// utilisation reports).
func (f *Fabric) Uplink() *sim.Link { return f.uplink }

// SetObs attaches utilisation timelines to the uplink and every port,
// including ports added later.
func (f *Fabric) SetObs(o *obs.Obs) {
	f.obs = o
	if o == nil {
		return
	}
	o.WatchLink("pcie.uplink.busy", f.uplink)
	for _, p := range f.ports {
		o.WatchLink(fmt.Sprintf("pcie.port%d.busy", p.id), p.link)
	}
}

// AddPort attaches a new downstream port (one per endpoint device).
func (f *Fabric) AddPort() *Port {
	id := len(f.ports)
	p := &Port{
		fabric: f,
		id:     id,
		link:   sim.NewLink(f.eng, fmt.Sprintf("pcie/port%d", id), PortBytesPerSec, portLatency),
	}
	f.ports = append(f.ports, p)
	if f.obs != nil {
		f.obs.WatchLink(fmt.Sprintf("pcie.port%d.busy", id), p.link)
	}
	return p
}

// Port is one downstream link of the switch, attached to a single endpoint.
type Port struct {
	fabric *Fabric
	id     int
	link   *sim.Link
}

// ID returns the port index.
func (p *Port) ID() int { return p.id }

// Link exposes the downstream link (for energy metering).
func (p *Port) Link() *sim.Link { return p.link }

// ToHost DMAs n bytes from the device into host memory: downstream port
// first, then the shared uplink.
func (p *Port) ToHost(proc *sim.Proc, n int64) {
	p.link.Transfer(proc, n)
	p.fabric.uplink.Transfer(proc, n)
}

// FromHost DMAs n bytes from host memory into the device: shared uplink
// first, then the downstream port.
func (p *Port) FromHost(proc *sim.Proc, n int64) {
	p.fabric.uplink.Transfer(proc, n)
	p.link.Transfer(proc, n)
}

// Message models a small control transaction (doorbell write, MSI-X
// interrupt): propagation latencies only, no occupancy.
func (p *Port) Message(proc *sim.Proc) {
	proc.Wait(uplinkLatency + portLatency)
}
