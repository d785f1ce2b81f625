package core

import (
	"fmt"

	"compstor/internal/apps"
	"compstor/internal/cpu"
	"compstor/internal/energy"
	"compstor/internal/flash"
	"compstor/internal/isps"
	"compstor/internal/minfs"
	"compstor/internal/obs"
	"compstor/internal/pcie"
	"compstor/internal/sim"
	"compstor/internal/ssd"
)

// Host is the server-side execution platform (the Xeon of Table IV),
// reusing the generic task executor with the host calibration. Its
// filesystem view routes through NVMe, so host-side computation pays the
// full data-movement cost the paper argues against.
type Host struct {
	Sub  *isps.Subsystem
	comp *energy.Component
}

// newHost builds the host platform with the standard program set installed.
// The Xeon baseline runs each program as one process, as the paper's host
// does: it never splits a scan.
func newHost(eng *sim.Engine, meter *energy.Meter, registry *apps.Registry) *Host {
	platform := cpu.Xeon()
	var comp *energy.Component
	if meter != nil {
		comp = meter.Component("host/cpu", platform.BaseWatts)
	}
	sub := isps.New(eng, isps.Config{
		Platform:   platform,
		Registry:   registry.Clone(),
		Meter:      comp,
		ScanChunks: 1,
	})
	return &Host{Sub: sub, comp: comp}
}

// Mount points host execution at a drive's NVMe-path filesystem view.
func (h *Host) Mount(view *minfs.View) { h.Sub.AttachFS(view) }

// Run executes a task on the host CPU (the conventional baseline).
func (h *Host) Run(p *sim.Proc, spec isps.TaskSpec) isps.TaskResult {
	return h.Sub.Spawn(p, spec)
}

// Energy returns the host CPU's energy component (nil without a meter).
func (h *Host) Energy() *energy.Component { return h.comp }

// DeviceUnit is one attached CompStor: drive + agent + client.
type DeviceUnit struct {
	Drive  *ssd.SSD
	Agent  *Agent
	Client *Client
}

// SystemConfig assembles a full testbed.
type SystemConfig struct {
	// CompStors is the number of in-situ drives to attach.
	CompStors int
	// ConventionalSSD attaches one conventional drive (the baseline server's
	// storage).
	ConventionalSSD bool
	// Registry is the program set installed everywhere; nil selects nothing
	// (callers usually pass appset.Base()).
	Registry *apps.Registry
	// Geometry overrides the flash array; the zero value selects the
	// default.
	Geometry flash.Geometry
	// WithHost attaches a Xeon host runner.
	WithHost bool
	// Ablation is copied to every drive, the conventional one included; the
	// zero value is the stock CompStor.
	Ablation ssd.Ablation
	// Obs, when set, instruments the whole testbed. Each drive gets its own
	// scope named after it (compstor0, conv0, ...); fabric timelines and
	// host metrics live on the handle passed here.
	Obs *obs.Obs
}

// System is an assembled testbed: one engine, one meter, one fabric, the
// drives, and optionally the host platform.
type System struct {
	Eng    *sim.Engine
	Meter  *energy.Meter
	Fabric *pcie.Fabric
	Obs    *obs.Obs

	Devices      []*DeviceUnit
	Conventional *ssd.SSD
	Host         *Host
}

// NewSystem builds a testbed.
func NewSystem(cfg SystemConfig) *System {
	if cfg.Registry == nil {
		panic("core: SystemConfig.Registry required")
	}
	eng := sim.NewEngine()
	meter := energy.NewMeter(eng)
	geo := cfg.Geometry
	if geo.Channels == 0 {
		geo = flash.DefaultGeometry()
	}
	sys := &System{
		Eng:    eng,
		Meter:  meter,
		Fabric: pcie.NewFabric(eng),
		Obs:    cfg.Obs,
	}
	sys.Fabric.SetObs(cfg.Obs)
	// PCIe transport energy: ~10 pJ/bit while moving data. At 16 GB/s that
	// is ~1.3 W of incremental draw on the uplink — small next to the CPUs,
	// but it makes the data-movement cost the paper argues about visible in
	// the meter.
	const pjPerBit = 10.0
	uplinkW := energy.PicojoulesPerBit(pjPerBit, pcie.UplinkBytesPerSec)
	energy.MeterLink(meter.Component("pcie/uplink", 0), sys.Fabric.Uplink(), uplinkW)
	meterPort := func(name string, port *pcie.Port) {
		portW := energy.PicojoulesPerBit(pjPerBit, pcie.PortBytesPerSec)
		energy.MeterLink(meter.Component(name, 0), port.Link(), portW)
	}
	for i := 0; i < cfg.CompStors; i++ {
		dcfg := ssd.CompStorConfig(fmt.Sprintf("compstor%d", i), cfg.Registry)
		dcfg.Geometry = geo
		dcfg.Meter = meter
		dcfg.Ablation = cfg.Ablation
		dcfg.Obs = cfg.Obs.Scope(dcfg.Name)
		port := sys.Fabric.AddPort()
		meterPort(fmt.Sprintf("pcie/port%d", port.ID()), port)
		drive := ssd.New(eng, port, dcfg)
		agent := attachAgent(drive)
		sys.Devices = append(sys.Devices, &DeviceUnit{
			Drive:  drive,
			Agent:  agent,
			Client: newClient(drive),
		})
	}
	if cfg.ConventionalSSD {
		dcfg := ssd.DefaultConfig("conv0")
		dcfg.Geometry = geo
		dcfg.Ablation = cfg.Ablation
		dcfg.Obs = cfg.Obs.Scope(dcfg.Name)
		port := sys.Fabric.AddPort()
		meterPort(fmt.Sprintf("pcie/port%d", port.ID()), port)
		sys.Conventional = ssd.New(eng, port, dcfg)
	}
	if cfg.WithHost {
		sys.Host = newHost(eng, meter, cfg.Registry)
		sys.Host.Sub.SetObs(cfg.Obs.Scope("host"))
		if sys.Conventional != nil {
			sys.Host.Mount(sys.Conventional.HostView())
		} else if len(sys.Devices) > 0 {
			sys.Host.Mount(sys.Devices[0].Drive.HostView())
		}
	}
	// Seed the proc pool for the workload's steady-state fan-out (page I/O
	// workers, stage/map procs), so testbed construction — not the measured
	// run — pays the coroutine creation.
	sys.Eng.Prewarm(16*cfg.CompStors + 32)
	return sys
}

// Device returns the i-th CompStor unit.
func (s *System) Device(i int) *DeviceUnit { return s.Devices[i] }

// Run drives the simulation to completion and returns the final virtual
// time.
func (s *System) Run() sim.Time { return s.Eng.Run() }

// Close force-terminates every simulated process and releases the pooled
// worker coroutines backing them (sim.Engine.Shutdown), then hands every
// drive's flash payload and L2P map to the spare lists the next testbed's
// drives take from (DESIGN.md §14). Call it after the last Run: daemons
// (write-back flushers, serving workers) otherwise stay parked forever and
// their coroutines accumulate across testbeds. The system cannot be used
// afterwards: stats and counters can still be read, but media and map
// cannot.
func (s *System) Close() {
	s.Eng.Shutdown()
	for _, d := range s.Devices {
		d.Drive.Release()
	}
	if s.Conventional != nil {
		s.Conventional.Release()
	}
}

// Go forks a simulated process on the system's engine.
func (s *System) Go(name string, body func(p *sim.Proc)) { s.Eng.Go(name, body) }
