// Package chaos is the deterministic fault-injection harness: a seedable
// Plan describes, per device, transient media errors, a whole-device
// failure at a virtual time, a slow-device latency multiplier, and dropped
// agent responses; Install binds the plan onto an assembled core.System
// through the fault hooks in flash, ssd, nvme, and the ISPS agent.
//
// Everything is driven by the simulation's virtual clock and per-device
// rand streams derived from Plan.Seed, so a chaos run is exactly
// reproducible: the same seed yields the same fault schedule, the same
// retry/failover decisions, and the same final virtual time. That is what
// makes the chaos suite a test harness rather than a flake generator — any
// failure it finds comes with the seed that replays it.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"compstor/internal/core"
	"compstor/internal/flash"
	"compstor/internal/nvme"
	"compstor/internal/sim"
)

// Injected error kinds. Wrapped errors carry device/op detail; match with
// errors.Is.
var (
	// ErrMediaRead is a transient uncorrectable read: the op already paid
	// its latency, the data did not arrive.
	ErrMediaRead = errors.New("chaos: injected media read error")
	// ErrMediaProgram is a transient program failure: the page is left
	// unusable until its block is erased, exactly as on real NAND.
	ErrMediaProgram = errors.New("chaos: injected media program error")
	// ErrDeviceDead is returned by every path of a device past its FailAt
	// time: media, protocol front-end, and agent all stop answering.
	ErrDeviceDead = errors.New("chaos: device failed")
	// ErrDropped is an agent that received a minion and never answered; the
	// client sees a failed vendor command, as a timed-out driver would.
	ErrDropped = errors.New("chaos: agent dropped response")
	// ErrFlap is a flapping device in a down phase: every command fails at
	// the transport, then the device comes back on its own — the in-between
	// failure mode that defeats both "retry here" and "declare it dead".
	ErrFlap = errors.New("chaos: device flapping (down phase)")
)

// ErrPowerLost marks operations refused because the device's power was cut.
// Unlike ErrDeviceDead, a power-cut device can come back: restore power and
// remount (ssd.Drive.Remount) and it serves again — with exactly the
// acknowledged state, courtesy of the FTL's crash recovery. Wraps
// flash.ErrPowerLoss so errors.Is finds either.
var ErrPowerLost = fmt.Errorf("chaos: device power cut (%w)", flash.ErrPowerLoss)

// DeviceFaults describes the fault behaviour of one device.
type DeviceFaults struct {
	// ReadErrProb / ProgramErrProb are per-operation probabilities of a
	// transient media error (drawn from the device's seeded stream).
	ReadErrProb    float64
	ProgramErrProb float64
	// DropProb is the per-minion probability that the agent drops the
	// response.
	DropProb float64
	// SlowFactor > 1 multiplies the device's per-command controller
	// overhead: a 4x-slow device pays 3 extra overheads per command. The
	// extra latency is charged in the protocol front-end, before the
	// command reaches the media.
	SlowFactor float64
	// FailAt, when non-zero, is the virtual time at which the whole device
	// fails: from then on every media operation, NVMe command, and agent
	// interaction errors.
	FailAt time.Duration
	// PowerCutAt, when non-zero, cuts the device's power at that virtual
	// time: an operation in flight is interrupted (a program is torn), and
	// every later operation fails with ErrPowerLost until the device is
	// powered back on and remounted. This is the recoverable cousin of
	// FailAt, for exercising crash recovery and cluster rejoin.
	PowerCutAt time.Duration
	// CorruptProb is the per-read probability that the page's stored payload
	// is silently corrupted before being served — retention/disturb damage
	// the device does not notice. The FTL's CRC turns it into a detectable
	// media error.
	CorruptProb float64

	// Gray failures — the device keeps answering, just badly. These are the
	// fault classes the cluster's health scorer exists to catch; none of
	// them ever trips the clean-death model.

	// FailSlowAt/FailSlowFor/FailSlowFactor define a fail-slow window: from
	// FailSlowAt, for FailSlowFor (0 = until the end of the run), every
	// command pays FailSlowFactor× the controller overhead. Unlike
	// SlowFactor — a permanently mediocre device — this is a healthy device
	// that degrades mid-run, the canonical gray failure.
	FailSlowAt     time.Duration
	FailSlowFor    time.Duration
	FailSlowFactor float64
	// FlapAt/FlapUp/FlapDown define a flapping device: from FlapAt it
	// alternates FlapUp of normal service with FlapDown of refusing every
	// command (ErrFlap at the transport), forever. All three must be set.
	FlapAt   time.Duration
	FlapUp   time.Duration
	FlapDown time.Duration
	// SpikeProb is the per-command probability of a latency spike of
	// SpikeDelay (charged like a slow command, drawn from the device's
	// seeded spike stream). Models GC stalls and firmware hiccups: rare,
	// huge, uncorrelated — pure p99.9 poison.
	SpikeProb  float64
	SpikeDelay time.Duration
}

// failed reports whether the whole-device failure time has passed.
func (f DeviceFaults) failed(now sim.Time) bool {
	return f.FailAt > 0 && now.Duration() >= f.FailAt
}

// failSlow reports whether now falls inside the fail-slow window.
func (f DeviceFaults) failSlow(now sim.Time) bool {
	if f.FailSlowAt <= 0 || f.FailSlowFactor <= 1 {
		return false
	}
	t := now.Duration()
	if t < f.FailSlowAt {
		return false
	}
	return f.FailSlowFor <= 0 || t < f.FailSlowAt+f.FailSlowFor
}

// flapDown reports whether now falls in a down phase of a flapping device.
func (f DeviceFaults) flapDown(now sim.Time) bool {
	if f.FlapAt <= 0 || f.FlapUp <= 0 || f.FlapDown <= 0 {
		return false
	}
	t := now.Duration()
	if t < f.FlapAt {
		return false
	}
	phase := (t - f.FlapAt) % (f.FlapUp + f.FlapDown)
	return phase >= f.FlapUp
}

// Plan is a complete, seedable fault schedule for a system.
type Plan struct {
	// Seed derives every random draw in the run. Two installs of the same
	// plan produce identical fault schedules.
	Seed int64
	// Default applies to devices without an explicit entry.
	Default DeviceFaults
	// Devices overrides faults per device index.
	Devices map[int]DeviceFaults
}

// NewPlan returns an empty (fault-free) plan with the given seed.
func NewPlan(seed int64) *Plan {
	return &Plan{Seed: seed, Devices: make(map[int]DeviceFaults)}
}

// WithDevice sets device i's faults and returns the plan for chaining.
func (pl *Plan) WithDevice(i int, f DeviceFaults) *Plan {
	if pl.Devices == nil {
		pl.Devices = make(map[int]DeviceFaults)
	}
	pl.Devices[i] = f
	return pl
}

// WithDefault sets the fault spec for all devices not overridden.
func (pl *Plan) WithDefault(f DeviceFaults) *Plan {
	pl.Default = f
	return pl
}

// Faults returns the spec that applies to device i.
func (pl *Plan) Faults(i int) DeviceFaults {
	if f, ok := pl.Devices[i]; ok {
		return f
	}
	return pl.Default
}

// Stats counts the faults an injector actually delivered.
type Stats struct {
	ReadFaults    int64 // transient media read errors injected
	ProgramFaults int64 // transient media program errors injected
	Drops         int64 // agent responses dropped
	SlowWaits     int64 // commands delayed by a SlowFactor
	DeadRejects   int64 // operations refused because the device had failed
	PowerCuts     int64 // scheduled power cuts delivered
	PowerRejects  int64 // operations refused on a powered-off device
	Corruptions   int64 // pages silently corrupted before a read
	FailSlowWaits int64 // commands delayed inside a fail-slow window
	FlapRejects   int64 // commands refused during a flap down phase
	Spikes        int64 // injected latency spikes
}

// Injector is a plan installed on a system. It owns the per-device rand
// streams and fault counters.
type Injector struct {
	sys   *core.System
	plan  *Plan
	stats Stats
}

// Install binds plan onto every CompStor device of sys and returns the
// injector. Hooks are installed at four layers: the NAND array (media
// errors, dead media), the drive backend (slow device, dead drive), the
// NVMe front-end (dead protocol path), and the ISPS agent (dropped
// responses). Install replaces any previously-installed hooks on those
// devices.
func Install(sys *core.System, plan *Plan) *Injector {
	inj := &Injector{sys: sys, plan: plan}
	// Surface the injected-fault counters in snapshots; Instant calls below
	// put the fault moments on the trace so retries and failovers can be
	// read causally against them. All obs methods are nil-safe.
	o := sys.Obs
	o.CounterFunc("chaos.read_faults", func() int64 { return inj.stats.ReadFaults })
	o.CounterFunc("chaos.program_faults", func() int64 { return inj.stats.ProgramFaults })
	o.CounterFunc("chaos.drops", func() int64 { return inj.stats.Drops })
	o.CounterFunc("chaos.slow_waits", func() int64 { return inj.stats.SlowWaits })
	o.CounterFunc("chaos.dead_rejects", func() int64 { return inj.stats.DeadRejects })
	o.CounterFunc("chaos.power_cuts", func() int64 { return inj.stats.PowerCuts })
	o.CounterFunc("chaos.power_rejects", func() int64 { return inj.stats.PowerRejects })
	o.CounterFunc("chaos.corruptions", func() int64 { return inj.stats.Corruptions })
	o.CounterFunc("chaos.failslow_waits", func() int64 { return inj.stats.FailSlowWaits })
	o.CounterFunc("chaos.flap_rejects", func() int64 { return inj.stats.FlapRejects })
	o.CounterFunc("chaos.spikes", func() int64 { return inj.stats.Spikes })
	for i, unit := range sys.Devices {
		i, unit := i, unit
		f := plan.Faults(i)
		// One stream per device, split per fault site so the draw sequence
		// at one layer is independent of traffic at another.
		mix := int64(i+1) * 0x5851F42D4C957F2D // per-device seed spread (LCG multiplier)
		mediaRng := rand.New(rand.NewSource(plan.Seed ^ mix ^ 0x6D6564696131))
		agentRng := rand.New(rand.NewSource(plan.Seed ^ mix ^ 0x6167656E7431))
		corruptRng := rand.New(rand.NewSource(plan.Seed ^ mix ^ 0x636F727231))
		spikeRng := rand.New(rand.NewSource(plan.Seed ^ mix ^ 0x7370696B6531))
		eng := sys.Eng
		nand := unit.Drive.Flash()

		dev := fmt.Sprint(i)
		if f.PowerCutAt > 0 {
			eng.At(sim.Time(f.PowerCutAt), func() {
				nand.PowerOff()
				inj.stats.PowerCuts++
				o.InstantAt(eng.Now(), "chaos", "power_cut", "device", dev)
			})
		}
		if f.FailAt > 0 {
			eng.At(sim.Time(f.FailAt), func() {
				o.InstantAt(eng.Now(), "chaos", "device_failed", "device", dev)
			})
		}
		if f.FailSlowAt > 0 && f.FailSlowFactor > 1 {
			eng.At(sim.Time(f.FailSlowAt), func() {
				o.InstantAt(eng.Now(), "chaos", "failslow_start", "device", dev)
			})
			if f.FailSlowFor > 0 {
				eng.At(sim.Time(f.FailSlowAt+f.FailSlowFor), func() {
					o.InstantAt(eng.Now(), "chaos", "failslow_end", "device", dev)
				})
			}
		}

		nand.SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
			if f.failed(eng.Now()) {
				inj.stats.DeadRejects++
				return fmt.Errorf("%w: device %d media %s %v", ErrDeviceDead, i, op, a)
			}
			switch op {
			case flash.FaultRead:
				if f.CorruptProb > 0 && corruptRng.Float64() < f.CorruptProb {
					// Silent: the read succeeds, the payload is damaged. Only
					// the FTL's CRC stands between this and wrong answers.
					if nand.CorruptPage(a) {
						inj.stats.Corruptions++
						o.InstantAt(eng.Now(), "chaos", "silent_corruption", "device", dev)
					}
				}
				if f.ReadErrProb > 0 && mediaRng.Float64() < f.ReadErrProb {
					inj.stats.ReadFaults++
					o.InstantAt(eng.Now(), "chaos", "media_read_fault", "device", dev)
					return fmt.Errorf("%w: device %d %v", ErrMediaRead, i, a)
				}
			case flash.FaultProgram:
				if f.ProgramErrProb > 0 && mediaRng.Float64() < f.ProgramErrProb {
					inj.stats.ProgramFaults++
					o.InstantAt(eng.Now(), "chaos", "media_program_fault", "device", dev)
					return fmt.Errorf("%w: device %d %v", ErrMediaProgram, i, a)
				}
			}
			return nil
		})

		unit.Drive.SetFaultHook(func(p *sim.Proc, op nvme.Opcode) error {
			if f.failed(p.Now()) {
				inj.stats.DeadRejects++
				return fmt.Errorf("%w: device %d backend %v", ErrDeviceDead, i, op)
			}
			if nand.PoweredOff() {
				inj.stats.PowerRejects++
				return fmt.Errorf("%w: device %d backend %v", ErrPowerLost, i, op)
			}
			if f.flapDown(p.Now()) {
				inj.stats.FlapRejects++
				return fmt.Errorf("%w: device %d backend %v", ErrFlap, i, op)
			}
			if f.SlowFactor > 1 {
				inj.stats.SlowWaits++
				p.Wait(time.Duration(float64(unit.Drive.CmdOverhead()) * (f.SlowFactor - 1)))
			}
			if f.failSlow(p.Now()) {
				inj.stats.FailSlowWaits++
				p.Wait(time.Duration(float64(unit.Drive.CmdOverhead()) * (f.FailSlowFactor - 1)))
			}
			if f.SpikeProb > 0 && f.SpikeDelay > 0 && spikeRng.Float64() < f.SpikeProb {
				inj.stats.Spikes++
				o.Instant(p, "chaos", "latency_spike", "device", dev)
				p.Wait(f.SpikeDelay)
			}
			return nil
		})

		unit.Drive.Controller().SetFaultHook(func(p *sim.Proc, cmd *nvme.Command) error {
			if f.failed(p.Now()) {
				inj.stats.DeadRejects++
				return fmt.Errorf("%w: device %d nvme %v", ErrDeviceDead, i, cmd.Op)
			}
			if nand.PoweredOff() {
				inj.stats.PowerRejects++
				return fmt.Errorf("%w: device %d nvme %v", ErrPowerLost, i, cmd.Op)
			}
			if f.flapDown(p.Now()) {
				inj.stats.FlapRejects++
				return fmt.Errorf("%w: device %d nvme %v", ErrFlap, i, cmd.Op)
			}
			return nil
		})

		unit.Agent.SetFaultHook(func(p *sim.Proc, cmd core.Command) error {
			if f.failed(p.Now()) {
				inj.stats.DeadRejects++
				return fmt.Errorf("%w: device %d agent", ErrDeviceDead, i)
			}
			if nand.PoweredOff() {
				inj.stats.PowerRejects++
				return fmt.Errorf("%w: device %d agent", ErrPowerLost, i)
			}
			if f.flapDown(p.Now()) {
				inj.stats.FlapRejects++
				return fmt.Errorf("%w: device %d agent", ErrFlap, i)
			}
			if f.DropProb > 0 && agentRng.Float64() < f.DropProb {
				inj.stats.Drops++
				o.Instant(p, "chaos", "drop", "device", dev)
				return fmt.Errorf("%w: device %d", ErrDropped, i)
			}
			return nil
		})
	}
	return inj
}

// Stats returns a snapshot of the injected-fault counters.
func (inj *Injector) Stats() Stats { return inj.stats }
