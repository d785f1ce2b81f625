// Package isps models the In-Storage Processing Subsystem: the quad-core
// ARM application processor, its DRAM budget, a thermal model, the program
// registry (with dynamic task loading), and the task executor that runs
// offloadable executables against the in-SSD filesystem.
//
// The subsystem's defining property — the paper's central architectural
// argument — is that its cores are *dedicated*: storage I/O never waits on
// them. The ablation configuration shares the SSD controller's cores
// instead (Biscuit-style), reproducing the interference the paper designs
// away.
package isps

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"compstor/internal/apps"
	"compstor/internal/cpu"
	"compstor/internal/energy"
	"compstor/internal/minfs"
	"compstor/internal/obs"
	"compstor/internal/sim"
)

// Config assembles a subsystem.
type Config struct {
	// Platform is the processor model; nil selects cpu.ISPS().
	Platform *cpu.Platform
	// Registry is the installed program set. Cloned per subsystem by the
	// caller; required.
	Registry *apps.Registry
	// Cores overrides the execution stations. Nil allocates dedicated
	// cores per the platform; pass the SSD controller's CPU resource to
	// build the shared-core ablation, whose compute runs in timeSlice quanta.
	Cores *sim.Resource
	// Meter receives compute energy; optional.
	Meter *energy.Component
	// ScanChunks is how many chunks a large scan splits into across the
	// cores (parscan.go): 0 is one per core, the stock CompStor; 1 runs every
	// task on one core, the paper's executor and its named ablation; n asks
	// for n.
	ScanChunks int
}

// timeSlice is the quantum compute runs on shared cores before it releases
// and re-acquires its core, so other work (notably I/O command handling on
// the controller) can interleave: a preemptive firmware scheduler.
// Dedicated ISPS cores run compute unsliced.
const timeSlice = time.Millisecond

// TaskSpec describes one in-situ execution request (the payload of a
// minion's command).
type TaskSpec struct {
	// Exec is a registered program name; Args are its argv. Alternatively
	// Script is a whole shell line run under `sh -c`.
	Exec   string
	Args   []string
	Script string
	// Stdin provides standard input bytes, if any.
	Stdin []byte
	// MemBytes reserves task DRAM (0 = subsystem default).
	MemBytes int64
	// Deadline, when non-zero, is the absolute virtual time past which the
	// task must abort (cooperatively, at its next charged I/O or compute
	// quantum), releasing its core and DRAM. The result carries
	// apps.ErrDeadline.
	Deadline sim.Time
	// Cancel, when non-nil, aborts the task when it fires (apps.ErrCanceled).
	Cancel *apps.CancelToken
}

// TaskResult reports one finished task.
type TaskResult struct {
	ExitCode int
	Stdout   []byte
	Stderr   []byte
	Started  sim.Time
	Finished sim.Time
	Err      error
}

// Elapsed returns the in-device execution time.
func (r TaskResult) Elapsed() sim.Duration { return r.Finished.Sub(r.Started) }

// Subsystem is a running ISPS.
type Subsystem struct {
	eng      *sim.Engine
	platform *cpu.Platform
	cores    *sim.Resource
	meter    *energy.Component
	registry *apps.Registry
	fsView   *minfs.View

	memTotal int64
	memUsed  int64

	thermal thermalModel

	slice      sim.Duration // timeSlice on shared cores, else 0
	scanChunks int

	running   int
	completed int64
	failed    int64
	loaded    int64
	deadlined int64 // tasks aborted by their deadline
	canceled  int64 // tasks aborted by their cancel token

	psTasks     int64
	psChunks    int64
	psFallbacks int64

	obs      *obs.Obs
	histExec *obs.Histogram
}

// New builds a subsystem. The filesystem view is attached later (after
// device assembly) with AttachFS.
func New(eng *sim.Engine, cfg Config) *Subsystem {
	pl := cfg.Platform
	if pl == nil {
		pl = cpu.ISPS()
	}
	if cfg.Registry == nil {
		panic("isps: registry required")
	}
	cores, slice := cfg.Cores, timeSlice
	if cores == nil {
		cores, slice = sim.NewResource(eng, pl.Cores), 0
	}
	s := &Subsystem{
		eng:        eng,
		platform:   pl,
		cores:      cores,
		meter:      cfg.Meter,
		registry:   cfg.Registry,
		memTotal:   pl.MemBytes,
		slice:      slice,
		scanChunks: cfg.ScanChunks,
		thermal:    newThermalModel(),
	}
	// Start at the idle thermal equilibrium (base power keeps the die above
	// ambient even with no tasks).
	s.thermal.tempC = s.thermal.ambient + s.thermal.rDegPerW*pl.BaseWatts
	return s
}

// AttachFS mounts the in-SSD filesystem view (the flash-access device
// driver path).
func (s *Subsystem) AttachFS(v *minfs.View) { s.fsView = v }

// FS returns the attached filesystem view (nil before AttachFS).
func (s *Subsystem) FS() *minfs.View { return s.fsView }

// Platform returns the processor model.
func (s *Subsystem) Platform() *cpu.Platform { return s.platform }

// Cores exposes the execution stations (for utilisation reporting).
func (s *Subsystem) Cores() *sim.Resource { return s.cores }

// SetObs attaches metrics, a core-utilisation timeline, and per-task spans.
// In the shared-core ablation the cores Resource belongs to the SSD
// controller, so the isps.cores.busy timeline then reflects all work on
// those cores, not just task execution.
func (s *Subsystem) SetObs(o *obs.Obs) {
	s.obs = o
	if o == nil {
		return
	}
	s.histExec = o.Histogram("isps.task_exec")
	queueWait := o.Histogram("isps.core_queue")
	s.cores.SetQueueTimeHook(queueWait.Observe)
	o.WatchResource("isps.cores.busy", s.cores)
	o.CounterFunc("isps.completed", func() int64 { return s.completed })
	o.CounterFunc("isps.failed", func() int64 { return s.failed })
	o.CounterFunc("isps.deadline_aborts", func() int64 { return s.deadlined })
	o.CounterFunc("isps.cancel_aborts", func() int64 { return s.canceled })
	o.CounterFunc("isps.loaded", func() int64 { return s.loaded })
	o.CounterFunc("isps.parscan.tasks", func() int64 { return s.psTasks })
	o.CounterFunc("isps.parscan.chunks", func() int64 { return s.psChunks })
	o.CounterFunc("isps.parscan.fallbacks", func() int64 { return s.psFallbacks })
}

// ReserveDRAM permanently claims n bytes of the subsystem's DRAM for a
// platform service (the drive wires the read-pipeline page cache through
// here), shrinking what tasks can reserve. The claim shows up in Status as
// used memory, exactly like task reservations. The one claimant is a
// constant-size cache well inside the DRAM, so the claim cannot fail.
func (s *Subsystem) ReserveDRAM(n int64) { s.memUsed += n }

// LoadTask installs a program at runtime (dynamic task loading). It
// reports whether an existing program was replaced.
func (s *Subsystem) LoadTask(prog apps.Program) bool {
	s.loaded++
	return s.registry.Register(prog)
}

// Errors.
var (
	ErrNoProgram = fmt.Errorf("isps: no such program")
	ErrNoMemory  = fmt.Errorf("isps: task memory budget exceeded")
)

// Spawn runs one task to completion, blocking the calling process. It
// queues on a core (FIFO) — a large scan on all of them (parscan.go) —
// charges compute time and energy through the platform model, and
// captures stdout/stderr. A task whose deadline has
// already passed (or whose cancel token has fired) fails fast without
// consuming a core or DRAM; one interrupted mid-run aborts at its next
// charged I/O or compute quantum and releases both.
func (s *Subsystem) Spawn(p *sim.Proc, spec TaskSpec) TaskResult {
	res := TaskResult{Started: p.Now()}

	if s.obs != nil {
		name := spec.Exec
		if spec.Script != "" {
			name = "sh"
		}
		sp := s.obs.Begin(p, "isps", name)
		defer func() { s.histExec.Observe(p.Now().Sub(res.Started)); sp.End() }()
	}

	t, err := s.admit(p, spec)
	if err != nil {
		res.Err, res.ExitCode, res.Finished = err, 1, p.Now()
		if errors.Is(err, ErrNoProgram) {
			res.ExitCode = 127
		}
		s.noteOutcome(err)
		return res
	}

	// A split scan's chunks run first, each on a core of its own; the merge
	// is what is left for the task's core.
	var stdout, stderr bytes.Buffer
	s.memUsed += t.mem
	var parts []any
	plan, cuts, split := s.splitPlan(&t)
	if split {
		parts, err = s.scan(p, t, plan, cuts)
	}
	s.onCore(p, func() {
		switch {
		case !split:
			err = t.prog.Run(s.context(p, &t, spec.Stdin, &stdout, &stderr), t.args)
		case err == nil:
			err = plan.Kernel.Merge(s.context(p, &t, nil, &stdout, &stderr), parts)
		}
		if s.fsView != nil {
			// Task outputs must be durable before the response travels back; a
			// lost background write fails the task rather than vanishing.
			if ferr := s.fsView.Flush(p); ferr != nil && err == nil {
				err = ferr
			}
		}
	})
	s.memUsed -= t.mem

	res.Stdout = stdout.Bytes()
	res.Stderr = stderr.Bytes()
	res.Finished = p.Now()
	res.ExitCode = apps.ExitCode(err)
	res.Err = err
	s.noteOutcome(err)
	return res
}

// task is one admitted TaskSpec: the program it resolved to, its argv, its
// DRAM reservation, and the bounds every program run on its behalf obeys.
type task struct {
	prog     apps.Program
	args     []string
	mem      int64
	deadline sim.Time
	cancel   *apps.CancelToken
}

// admit resolves spec to a task, or says why it cannot start: its deadline
// passed or its cancel token fired, its DRAM does not fit, or its program is
// not installed.
func (s *Subsystem) admit(p *sim.Proc, spec TaskSpec) (task, error) {
	switch {
	case spec.Cancel.Canceled():
		return task{}, apps.ErrCanceled
	case spec.Deadline > 0 && p.Now() >= spec.Deadline:
		return task{}, apps.ErrDeadline
	}
	t := task{args: spec.Args, mem: spec.MemBytes, deadline: spec.Deadline, cancel: spec.Cancel}
	if t.mem <= 0 {
		t.mem = apps.MaxOutput
	}
	if s.memUsed+t.mem > s.memTotal {
		return task{}, fmt.Errorf("%w: %d + %d > %d", ErrNoMemory, s.memUsed, t.mem, s.memTotal)
	}
	name := spec.Exec
	if spec.Script != "" {
		name, t.args = "sh", []string{"-c", spec.Script}
	}
	prog, ok := s.registry.Lookup(name)
	switch {
	case !ok && spec.Script != "":
		return task{}, fmt.Errorf("%w: sh (script execution)", ErrNoProgram)
	case !ok:
		return task{}, fmt.Errorf("%w: %s", ErrNoProgram, name)
	}
	t.prog = prog
	return t, nil
}

// context is the executor's one apps.Context: every program run of t — the
// serial run, each chunk worker, the merge — sees the task's filesystem,
// registry, deadline and cancel token, and a charge bound to p, the proc
// holding the core. Shell stages copy theirs from it (shx), so they obey
// the same bounds.
func (s *Subsystem) context(p *sim.Proc, t *task, stdin []byte, stdout, stderr io.Writer) *apps.Context {
	return &apps.Context{
		Proc:     p,
		FS:       s.fsView,
		Stdin:    bytes.NewReader(stdin),
		Stdout:   stdout,
		Stderr:   stderr,
		Class:    t.prog.Class(),
		Charge:   s.charge(p, t.deadline, t.cancel),
		Deadline: t.deadline,
		Cancel:   t.cancel,
		Lookup:   s.registry.Lookup,
	}
}

// onCore runs fn on a core p holds for it: queued FIFO for the core, counted
// as running, and seen by the thermal model on the way in and out. A task's
// own run and each of its chunk workers are one such hold.
func (s *Subsystem) onCore(p *sim.Proc, fn func()) {
	s.cores.Acquire(p)
	s.observeThermal()
	s.running++
	fn()
	s.running--
	s.cores.Release()
	s.observeThermal()
}

// noteOutcome updates the completion counters, splitting deadline and
// cancellation aborts out of the plain failures (they still count as
// failed: the task did not produce its result).
func (s *Subsystem) noteOutcome(err error) {
	switch {
	case err == nil:
		s.completed++
	case errors.Is(err, apps.ErrDeadline):
		s.deadlined++
		s.failed++
	case errors.Is(err, apps.ErrCanceled):
		s.canceled++
		s.failed++
	default:
		s.failed++
	}
}

// charge returns the compute cost function bound to the holding core.
// With a time slice configured, long computations yield the core every
// quantum so queued work (I/O handling on shared cores) interleaves. A
// deadline caps every quantum — compute never extends past it, and once it
// passes (or the cancel token fires) remaining compute is abandoned: the
// next charged I/O surfaces the typed abort to the program.
func (s *Subsystem) charge(p *sim.Proc, deadline sim.Time, cancel *apps.CancelToken) apps.ChargeFunc {
	return func(c cpu.Class, n int64) {
		d := s.platform.ComputeTime(c, n)
		for d > 0 {
			if cancel.Canceled() {
				return
			}
			q := d
			if s.slice > 0 && q > s.slice {
				q = s.slice
			}
			if deadline > 0 {
				rem := deadline.Sub(p.Now())
				if rem <= 0 {
					return
				}
				q = min(q, rem)
			}
			p.Wait(q)
			s.cores.AddBusy(q)
			if s.meter != nil {
				s.meter.AddActive(q, s.platform.CoreActiveWatts)
			}
			d -= q
			if s.slice > 0 && d > 0 {
				s.cores.Release()
				s.cores.Acquire(p)
			}
		}
	}
}

// Status is the payload answered to an administrative query, used by the
// host for load balancing (the paper's "ARM cores utilization, or
// temperature of the cores").
type Status struct {
	RunningTasks int
	QueuedTasks  int
	CoresBusy    int
	Cores        int
	// InFlightMinions counts minions the agent has accepted and not yet
	// answered, including ones still crossing the DRAM or waiting for a
	// core — the device-side twin of cluster.Pool's host-side in-flight
	// count. Filled by the agent, not by the subsystem itself.
	InFlightMinions int
	Utilization     float64
	TemperatureC    float64
	MemUsedBytes    int64
	MemTotalBytes   int64
	CompletedTasks  int64
	FailedTasks     int64
	Programs        []string
}

// Status samples the subsystem.
func (s *Subsystem) Status() Status {
	return Status{
		RunningTasks:   s.running,
		QueuedTasks:    s.cores.QueueLen(),
		CoresBusy:      s.cores.InUse(),
		Cores:          s.cores.Capacity(),
		Utilization:    s.cores.Utilization(),
		TemperatureC:   s.Temperature(),
		MemUsedBytes:   s.memUsed,
		MemTotalBytes:  s.memTotal,
		CompletedTasks: s.completed,
		FailedTasks:    s.failed,
		Programs:       s.registry.Names(),
	}
}

// Thermal model ---------------------------------------------------------------

// thermalModel is a first-order RC node: temperature relaxes toward
// ambient + R·P with time constant tau.
type thermalModel struct {
	tempC    float64
	lastAt   sim.Time
	ambient  float64
	rDegPerW float64
	tau      float64 // seconds
}

func newThermalModel() thermalModel {
	return thermalModel{tempC: 40, ambient: 40, rDegPerW: 5.5, tau: 8}
}

// observeThermal advances the thermal state using current power draw.
func (s *Subsystem) observeThermal() {
	now := s.eng.Now()
	power := s.platform.BaseWatts + float64(s.cores.InUse())*s.platform.CoreActiveWatts
	s.thermal.advance(now, power)
}

func (t *thermalModel) advance(now sim.Time, power float64) {
	dt := now.Sub(t.lastAt).Seconds()
	if dt > 0 {
		target := t.ambient + t.rDegPerW*power
		alpha := 1 - math.Exp(-dt/t.tau)
		t.tempC += (target - t.tempC) * alpha
	}
	t.lastAt = now
}

// Temperature returns the current die temperature estimate in °C.
func (s *Subsystem) Temperature() float64 {
	s.observeThermal()
	return s.thermal.tempC
}
