package core

import (
	"fmt"

	"compstor/internal/apps"
	"compstor/internal/minfs"
	"compstor/internal/nvme"
	"compstor/internal/sim"
	"compstor/internal/ssd"
)

// Client is the host-side in-situ library: "a C/C++ library that provides
// high-level APIs for the client ... only intended to be used in the
// client, not in the off-loadable executable" (paper §III.B). One client
// drives one CompStor; a host process may hold many clients.
type Client struct {
	drive *ssd.SSD
	drv   *nvme.Driver
	view  *minfs.View
}

// newClient opens an in-situ session on a drive. The drive must be a
// CompStor with an attached agent.
func newClient(drive *ssd.SSD) *Client {
	return &Client{drive: drive, drv: drive.Driver(), view: drive.HostView()}
}

// FS returns the client's host-path filesystem view for staging input
// files and retrieving outputs.
func (c *Client) FS() *minfs.View { return c.view }

// SendMinion configures a minion with the command, sends it, waits for the
// in-situ processing to finish, and returns the minion with its response
// populated (steps 1 and 6 of Table III).
func (c *Client) SendMinion(p *sim.Proc, cmd Command) (*Minion, error) {
	if o := c.drive.Obs(); o != nil {
		// Root of the minion's causal tree: everything below (NVMe queueing,
		// agent dispatch, in-situ execution, flash ops) parents back here.
		sp := o.Begin(p, "client", "minion "+cmd.Name())
		defer sp.End()
	}
	// fsync barrier: staged input files must be durable before the device
	// side reads them through its own view.
	m := &Minion{Command: cmd, Submitted: p.Now()}
	if err := c.view.Flush(p); err != nil {
		m.Returned = p.Now()
		return m, fmt.Errorf("core: staging flush failed: %w", err)
	}
	comp := c.drv.Submit(p, &nvme.Command{
		Op:           nvme.OpVendorMinion,
		Payload:      cmd,
		PayloadBytes: cmd.WireSize(),
	})
	m.Returned = p.Now()
	if comp.Status != nvme.StatusOK {
		return m, fmt.Errorf("core: minion transport failed: %w", comp.Err)
	}
	resp, ok := comp.Payload.(*Response)
	if !ok {
		return m, fmt.Errorf("core: unexpected minion response %T", comp.Payload)
	}
	m.Response = resp
	return m, nil
}

// Run is the convenience wrapper: send a minion and surface its response.
func (c *Client) Run(p *sim.Proc, cmd Command) (*Response, error) {
	m, err := c.SendMinion(p, cmd)
	if err != nil {
		return nil, err
	}
	return m.Response, nil
}

// Status issues a status query (utilisation, temperature, memory, installed
// programs) — the load-balancing input.
func (c *Client) Status(p *sim.Proc) (StatusReport, error) {
	comp := c.drv.Submit(p, &nvme.Command{
		Op:           nvme.OpVendorQuery,
		Payload:      Query{Kind: QueryStatus},
		PayloadBytes: 64,
	})
	if comp.Status != nvme.StatusOK {
		return StatusReport{}, fmt.Errorf("core: status query failed: %w", comp.Err)
	}
	st, ok := comp.Payload.(StatusReport)
	if !ok {
		return StatusReport{}, fmt.Errorf("core: unexpected status payload %T", comp.Payload)
	}
	return st, nil
}

// LoadTask installs an executable on the device at runtime (dynamic task
// loading). binaryBytes is the size of the shipped ARM binary; it is DMAed
// over the fabric.
func (c *Client) LoadTask(p *sim.Proc, prog apps.Program, binaryBytes int64) error {
	if binaryBytes <= 0 {
		binaryBytes = 256 << 10
	}
	comp := c.drv.Submit(p, &nvme.Command{
		Op:           nvme.OpVendorTaskLoad,
		Payload:      TaskLoad{Program: prog, BinaryBytes: binaryBytes},
		PayloadBytes: binaryBytes,
	})
	if comp.Status != nvme.StatusOK {
		return fmt.Errorf("core: task load failed: %w", comp.Err)
	}
	return nil
}
