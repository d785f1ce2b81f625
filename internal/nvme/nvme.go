// Package nvme models an NVMe-like host/controller protocol over a PCIe
// port: submission with queue-depth admission, command fetch, data DMA in
// the proper direction, completion posting, and interrupt delivery.
//
// Besides the standard I/O command set (READ, WRITE, FLUSH, dataset-
// management TRIM) the controller carries the CompStor vendor extensions
// that transport minions and queries to the in-storage processing subsystem
// (MINION_SEND, QUERY, TASK_LOAD).
package nvme

import (
	"errors"
	"fmt"
	"strings"

	"compstor/internal/obs"
	"compstor/internal/pcie"
	"compstor/internal/sim"
)

// Opcode identifies an NVMe command.
type Opcode uint8

// Standard and vendor opcodes.
const (
	OpRead Opcode = iota
	OpWrite
	OpFlush
	OpTrim // dataset management / deallocate
	// Vendor extensions (the CompStor in-situ transport).
	OpVendorMinion   // deliver a minion; completes when in-situ task finishes
	OpVendorQuery    // administrative query (status, temperature, utilisation)
	OpVendorTaskLoad // dynamic task loading: install an executable at runtime
)

var opNames = [...]string{"READ", "WRITE", "FLUSH", "TRIM", "VENDOR_MINION", "VENDOR_QUERY", "VENDOR_TASK_LOAD"}

func (o Opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Status is a completion status code.
type Status uint8

// Completion statuses.
const (
	StatusOK Status = iota
	StatusInvalid
	StatusCapacity
	StatusInternal
)

var statusNames = [...]string{"OK", "INVALID", "CAPACITY", "INTERNAL"}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("STATUS(%d)", uint8(s))
}

// Sizes of protocol structures DMAed across the fabric.
const (
	sqeBytes = 64 // submission queue entry
	cqeBytes = 16 // completion queue entry
)

// Command is a submission queue entry plus its host-resident payload.
type Command struct {
	Op    Opcode
	LBA   int64 // logical page address (units of backend page size)
	Pages int64 // page count for Read/Trim
	// Data is the host buffer the command DMAs: the source of a Write
	// (a multiple of the page size) or the destination of a Read (exactly
	// Pages pages). The host owns it and must leave it alone until the
	// completion.
	Data []byte

	// Vendor payload: an opaque structure handed to the backend, with its
	// serialised wire size so the fabric can charge the DMA.
	Payload      any
	PayloadBytes int64

	comp      *Completion // completion to fill, when the submitter lends one
	submitted sim.Time
}

// Completion is the controller's answer to one command.
type Completion struct {
	Status       Status
	Err          error // detail for non-OK status
	Payload      any   // vendor response structure
	PayloadBytes int64 // wire size of Payload
	Submitted    sim.Time
	Completed    sim.Time
}

// Latency returns the command's host-observed service time.
func (c *Completion) Latency() sim.Duration { return c.Completed.Sub(c.Submitted) }

// Backend is the device-side service the controller drives: the SSD's FTL
// plus, on CompStor devices, the vendor path into the ISPS.
type Backend interface {
	PageSize() int
	// Read fills dst (pages*PageSize bytes) from logical page lba on.
	Read(p *sim.Proc, lba, pages int64, dst []byte) error
	// Write stores data (a whole number of pages) starting at lba.
	Write(p *sim.Proc, lba int64, data []byte) error
	// Trim deallocates pages starting at lba.
	Trim(p *sim.Proc, lba, pages int64) error
	// Flush persists volatile state.
	Flush(p *sim.Proc) error
	// Vendor executes a vendor command and returns the response payload and
	// its wire size.
	Vendor(p *sim.Proc, op Opcode, payload any) (resp any, respBytes int64, err error)
}

// The controller model: modern controllers service deep queues
// concurrently, so the flash die and channel resources are the real
// limiters.
const (
	// queueDepth bounds outstanding commands (admission at the host driver).
	queueDepth = 128
	// ioWorkers is the number of I/O commands the front-end executes at
	// once; it models the controller's command-level parallelism.
	ioWorkers = 64
	// vendorWorkers bounds vendor commands (minions, queries) separately so
	// long-running in-situ tasks never starve the I/O path — the hardware
	// analogue is the separate admin/vendor queue pair.
	vendorWorkers = 8
)

// Controller is the device-side protocol engine. Create with NewController,
// then obtain the host-side handle with Driver.
type Controller struct {
	port    *pcie.Port
	backend Backend
	qd      *sim.Semaphore
	io      *sim.Semaphore // front-end execution slots for I/O commands
	vendor  *sim.Semaphore // and for vendor commands
	stats   Stats

	faultHook func(p *sim.Proc, cmd *Command) error

	// freeIO recycles the command and completion of the Driver's
	// convenience calls, which keep neither past their return.
	freeIO []*ioPair

	obs   *obs.Obs
	hists [7]*obs.Histogram // per-opcode host-observed latency
}

// SetFaultHook installs a protocol-level fault injector, run after the SQE
// fetch, before the backend sees the command. An error fails the command
// with StatusInternal — a completed-with-error CQE, the way a dropped or
// garbled device response reaches a driver with a timeout. The hook runs on
// the submitting process, holding a front-end slot, and may call p.Wait to
// model a slow front-end. Pass nil to clear.
func (c *Controller) SetFaultHook(fn func(p *sim.Proc, cmd *Command) error) { c.faultHook = fn }

// Stats counts protocol activity.
type Stats struct {
	Commands    int64
	ReadPages   int64
	WritePages  int64
	TrimPages   int64
	VendorCmds  int64
	Failures    int64
	BytesToHost int64
	BytesFromHo int64
}

// NewController returns a controller. It starts no process: each command
// runs on its submitter, in one of ioWorkers I/O or vendorWorkers slots.
func NewController(eng *sim.Engine, port *pcie.Port, backend Backend) *Controller {
	return &Controller{
		port:    port,
		backend: backend,
		qd:      sim.NewSemaphore(eng, queueDepth),
		io:      sim.NewSemaphore(eng, ioWorkers),
		vendor:  sim.NewSemaphore(eng, vendorWorkers),
	}
}

// Stats returns protocol counters.
func (c *Controller) Stats() Stats { return c.stats }

// SetObs attaches an observability scope: per-opcode host-observed latency
// histograms (nvme.read … nvme.vendor_minion), a queue-depth admission wait
// histogram (nvme.qd_wait), snapshot-time counters from Stats, and — when
// tracing is on — a host-side span per Submit and, under it, a device-side
// span per command.
func (c *Controller) SetObs(o *obs.Obs) {
	c.obs = o
	for op := OpRead; op <= OpVendorTaskLoad; op++ {
		c.hists[op] = o.Histogram("nvme." + strings.ToLower(op.String()))
	}
	qdWait := o.Histogram("nvme.qd_wait")
	if o != nil {
		c.qd.SetQueueTimeHook(qdWait.Observe)
	}
	o.CounterFunc("nvme.commands", func() int64 { return c.stats.Commands })
	o.CounterFunc("nvme.read_pages", func() int64 { return c.stats.ReadPages })
	o.CounterFunc("nvme.write_pages", func() int64 { return c.stats.WritePages })
	o.CounterFunc("nvme.trim_pages", func() int64 { return c.stats.TrimPages })
	o.CounterFunc("nvme.vendor_cmds", func() int64 { return c.stats.VendorCmds })
	o.CounterFunc("nvme.failures", func() int64 { return c.stats.Failures })
	o.CounterFunc("nvme.bytes_to_host", func() int64 { return c.stats.BytesToHost })
	o.CounterFunc("nvme.bytes_from_host", func() int64 { return c.stats.BytesFromHo })
}

// frontEnd returns the execution slots an opcode's commands queue for:
// vendor commands have their own.
func (c *Controller) frontEnd(op Opcode) *sim.Semaphore {
	if op == OpVendorMinion || op == OpVendorQuery || op == OpVendorTaskLoad {
		return c.vendor
	}
	return c.io
}

// serve runs one command on the submitting process, holding a front-end
// slot: a yield at the doorbell's instant (where a front-end worker's wake-up
// was), the command, the completion posted and the interrupt raised. The
// slot goes back on every way out, a Shutdown unwind included.
func (c *Controller) serve(p *sim.Proc, cmd *Command) *Completion {
	fe := c.frontEnd(cmd.Op)
	fe.Acquire(p, 1)
	defer fe.Release(1)
	p.WaitUntil(p.Now())
	var sp *obs.Span
	if c.obs != nil {
		sp = c.obs.Begin(p, "nvme", cmd.Op.String()) // under the host-side span
	}
	comp := c.execute(p, cmd)
	comp.Completed = p.Now()
	sp.End()
	if c.obs != nil && int(cmd.Op) < len(c.hists) {
		c.hists[cmd.Op].Observe(comp.Latency())
	}
	// Post CQE and raise the interrupt.
	c.port.ToHost(p, cqeBytes)
	c.port.Message(p)
	return comp
}

func (c *Controller) execute(p *sim.Proc, cmd *Command) *Completion {
	c.stats.Commands++
	// Fetch the SQE from host memory.
	c.port.FromHost(p, sqeBytes)
	comp := cmd.comp
	if comp == nil {
		comp = new(Completion)
	}
	*comp = Completion{Status: StatusOK, Submitted: cmd.submitted}
	if c.faultHook != nil {
		if err := c.faultHook(p, cmd); err != nil {
			return c.fail(comp, err)
		}
	}
	ps := int64(c.backend.PageSize())
	switch cmd.Op {
	case OpRead:
		if int64(len(cmd.Data)) != cmd.Pages*ps {
			return c.fail(comp, fmt.Errorf("%w: read buffer of %d bytes for %d pages", ErrInvalid, len(cmd.Data), cmd.Pages))
		}
		if err := c.backend.Read(p, cmd.LBA, cmd.Pages, cmd.Data); err != nil {
			return c.fail(comp, err)
		}
		c.port.ToHost(p, int64(len(cmd.Data)))
		c.stats.BytesToHost += int64(len(cmd.Data))
		c.stats.ReadPages += cmd.Pages
	case OpWrite:
		if int64(len(cmd.Data))%ps != 0 || len(cmd.Data) == 0 {
			return c.fail(comp, fmt.Errorf("nvme: write payload %d bytes not page-aligned", len(cmd.Data)))
		}
		c.port.FromHost(p, int64(len(cmd.Data)))
		c.stats.BytesFromHo += int64(len(cmd.Data))
		if err := c.backend.Write(p, cmd.LBA, cmd.Data); err != nil {
			return c.fail(comp, err)
		}
		c.stats.WritePages += int64(len(cmd.Data)) / ps
	case OpTrim:
		if err := c.backend.Trim(p, cmd.LBA, cmd.Pages); err != nil {
			return c.fail(comp, err)
		}
		c.stats.TrimPages += cmd.Pages
	case OpFlush:
		if err := c.backend.Flush(p); err != nil {
			return c.fail(comp, err)
		}
	case OpVendorMinion, OpVendorQuery, OpVendorTaskLoad:
		c.stats.VendorCmds++
		if cmd.PayloadBytes > 0 {
			c.port.FromHost(p, cmd.PayloadBytes)
			c.stats.BytesFromHo += cmd.PayloadBytes
		}
		resp, n, err := c.backend.Vendor(p, cmd.Op, cmd.Payload)
		if err != nil {
			return c.fail(comp, err)
		}
		if n > 0 {
			c.port.ToHost(p, n)
			c.stats.BytesToHost += n
		}
		comp.Payload = resp
		comp.PayloadBytes = n
	default:
		return c.fail(comp, fmt.Errorf("nvme: unknown opcode %v", cmd.Op))
	}
	return comp
}

func (c *Controller) fail(comp *Completion, err error) *Completion {
	c.stats.Failures++
	comp.Err = err
	switch {
	case errors.Is(err, ErrInvalid):
		comp.Status = StatusInvalid
	default:
		comp.Status = StatusInternal
	}
	return comp
}

// ErrInvalid marks host-fault command errors.
var ErrInvalid = errors.New("nvme: invalid command")

// Driver is the host-side handle: it rings the doorbell, has the command
// executed, and takes the completion interrupt.
type Driver struct {
	ctrl *Controller
}

// Driver returns a host-side driver for the controller.
func (c *Controller) Driver() *Driver { return &Driver{ctrl: c} }

// Submit issues cmd and blocks the calling process until completion,
// honouring the queue-depth limit.
func (d *Driver) Submit(p *sim.Proc, cmd *Command) *Completion {
	c := d.ctrl
	if c.obs != nil {
		sp := c.obs.Begin(p, "nvme.host", cmd.Op.String())
		defer sp.End()
	}
	c.qd.Acquire(p, 1)
	defer c.qd.Release(1)
	cmd.submitted = p.Now()
	// Doorbell write.
	c.port.Message(p)
	comp := c.serve(p, cmd)
	// Take the interrupt: a yield at the instant the completion was posted.
	p.WaitUntil(p.Now())
	return comp
}

// ioPair is one recycled command with the completion the controller fills
// for it (Controller.freeIO).
type ioPair struct {
	cmd  Command
	comp Completion
}

// do issues one data command on a recycled ioPair and reduces its completion
// to the error — all the convenience wrappers below report — before the pair
// goes back. Direct Submit callers still own the Completion they get.
func (d *Driver) do(p *sim.Proc, op Opcode, lba, pages int64, data []byte) error {
	c := d.ctrl
	var pair *ioPair
	if n := len(c.freeIO); n > 0 {
		pair = c.freeIO[n-1]
		c.freeIO[n-1] = nil
		c.freeIO = c.freeIO[:n-1]
	} else {
		pair = new(ioPair)
	}
	pair.cmd = Command{Op: op, LBA: lba, Pages: pages, Data: data, comp: &pair.comp}
	var err error
	if comp := d.Submit(p, &pair.cmd); comp.Status != StatusOK {
		err = comp.Err
	}
	pair.cmd, pair.comp = Command{}, Completion{} // let go of the caller's buffer
	c.freeIO = append(c.freeIO, pair)
	return err
}

// Read is a convenience wrapper issuing an OpRead into p's scratch memory
// (sim.Proc.Scratch). As with bufio.Scanner.Bytes, the slice is valid until
// p's next Read or its return: a caller that keeps the pages copies them or
// reads with ReadInto.
func (d *Driver) Read(p *sim.Proc, lba, pages int64) ([]byte, error) {
	dst := p.Scratch(int(pages) * d.ctrl.backend.PageSize())
	if err := d.ReadInto(p, lba, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ReadInto issues an OpRead that fills dst, a whole number of pages.
func (d *Driver) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	return d.do(p, OpRead, lba, int64(len(dst)/d.ctrl.backend.PageSize()), dst)
}

// Write is a convenience wrapper issuing an OpWrite.
func (d *Driver) Write(p *sim.Proc, lba int64, data []byte) error {
	return d.do(p, OpWrite, lba, 0, data)
}

// Flush is a convenience wrapper issuing an OpFlush — the durability
// barrier: when it completes, every write this controller previously
// acknowledged is recoverable after power loss without journal replay (the
// FTL commits an L2P checkpoint covering them).
func (d *Driver) Flush(p *sim.Proc) error { return d.do(p, OpFlush, 0, 0, nil) }

// Trim is a convenience wrapper issuing an OpTrim.
func (d *Driver) Trim(p *sim.Proc, lba, pages int64) error {
	return d.do(p, OpTrim, lba, pages, nil)
}
