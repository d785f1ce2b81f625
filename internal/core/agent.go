package core

import (
	"errors"
	"fmt"

	"compstor/internal/apps"
	"compstor/internal/flash"
	"compstor/internal/ftl"
	"compstor/internal/isps"
	"compstor/internal/nvme"
	"compstor/internal/sim"
	"compstor/internal/ssd"
)

// Agent is the ISPS agent: "a daemon running on CompStor which is
// responsible for receiving minions from clients and spawning in-storage
// processes based on the command inside the received minions" (paper
// §III.B). It is installed as the drive's vendor-command handler; each
// vendor front-end context acts as one agent service thread.
type Agent struct {
	drive *ssd.SSD
	sub   *isps.Subsystem

	minions  int64
	queries  int64
	loads    int64
	inflight int64 // minions accepted and not yet answered
}

// attachAgent installs an agent on one of NewSystem's CompStor drives.
func attachAgent(drive *ssd.SSD) *Agent {
	a := &Agent{drive: drive, sub: drive.ISPS()}
	drive.SetVendorHandler(a.handle)
	if o := drive.Obs(); o != nil {
		o.CounterFunc("agent.minions", func() int64 { return a.minions })
		o.CounterFunc("agent.queries", func() int64 { return a.queries })
		o.CounterFunc("agent.task_loads", func() int64 { return a.loads })
		o.CounterFunc("agent.inflight", func() int64 { return a.inflight })
	}
	return a
}

// handle services one vendor command in device context.
func (a *Agent) handle(p *sim.Proc, op nvme.Opcode, payload any) (any, int64, error) {
	switch op {
	case nvme.OpVendorMinion:
		cmd, ok := payload.(Command)
		if !ok {
			return nil, 0, fmt.Errorf("core: minion payload is %T", payload)
		}
		resp := a.runMinion(p, cmd)
		return resp, resp.WireSize(), nil
	case nvme.OpVendorQuery:
		q, ok := payload.(Query)
		if !ok {
			return nil, 0, fmt.Errorf("core: query payload is %T", payload)
		}
		a.queries++
		switch q.Kind {
		case QueryStatus:
			st := a.sub.Status()
			st.InFlightMinions = int(a.inflight)
			return st, 512, nil
		default:
			return nil, 0, fmt.Errorf("core: unknown query kind %d", q.Kind)
		}
	case nvme.OpVendorTaskLoad:
		tl, ok := payload.(TaskLoad)
		if !ok {
			return nil, 0, fmt.Errorf("core: task-load payload is %T", payload)
		}
		a.loads++
		// Installing the binary costs a write-ish delay proportional to its
		// size through the DRAM (modelled as already paid by the fabric DMA).
		a.sub.LoadTask(tl.Program)
		return true, 16, nil
	}
	return nil, 0, fmt.Errorf("core: unhandled vendor opcode %v", op)
}

// runMinion executes steps 2-6 of the minion lifetime (Table III).
func (a *Agent) runMinion(p *sim.Proc, cmd Command) *Response {
	a.minions++
	a.inflight++
	defer func() { a.inflight-- }()
	if o := a.drive.Obs(); o != nil {
		sp := o.Begin(p, "agent", "dispatch "+cmd.Name())
		defer sp.End()
	}
	resp := &Response{AgentReceived: p.Now()}

	// Access check: declared inputs must exist in the namespace.
	if fsv := a.sub.FS(); fsv != nil {
		for _, in := range cmd.InputFiles {
			if _, err := fsv.FS().Stat(in); err != nil {
				resp.Status = StatusRejected
				resp.ExitCode = 2
				resp.Error = fmt.Sprintf("input %s: %v", in, err)
				resp.TaskStarted = p.Now()
				resp.TaskFinished = p.Now()
				return resp
			}
		}
	}

	resp.TaskStarted = p.Now()
	res := a.sub.Spawn(p, isps.TaskSpec{
		Exec:     cmd.Exec,
		Args:     cmd.Args,
		Script:   cmd.Script,
		Stdin:    cmd.Stdin,
		MemBytes: cmd.MemBytes,
		Deadline: cmd.Deadline,
		Cancel:   cmd.Cancel,
	})
	resp.TaskFinished = p.Now()
	resp.Stdout = res.Stdout
	resp.Stderr = res.Stderr
	resp.ExitCode = res.ExitCode
	resp.Elapsed = res.Elapsed()
	if res.Err != nil {
		switch {
		case errors.Is(res.Err, apps.ErrDeadline):
			// The clock ran out, before or during execution. The device is
			// healthy and retrying cannot help.
			resp.Status = StatusDeadline
		case errors.Is(res.Err, apps.ErrCanceled):
			// The host revoked the request — typically a hedged twin losing.
			resp.Status = StatusCanceled
		default:
			resp.Status = StatusFailed
			// Media-rooted failures are the device's fault, not the task's: a
			// CRC-caught corrupt page or a power cut mid-task. Mark them so the
			// cluster retries elsewhere instead of declaring the task bad.
			resp.Retryable = errors.Is(res.Err, ftl.ErrCorrupt) || errors.Is(res.Err, flash.ErrPowerLoss)
		}
		resp.Error = res.Err.Error()
	}
	return resp
}
