// Package nvme models an NVMe-like host/controller protocol over a PCIe
// port: submission with queue-depth admission, command fetch, data DMA in
// the proper direction, completion posting, and interrupt delivery.
//
// Besides the standard I/O command set (READ, WRITE, FLUSH, dataset-
// management TRIM, IDENTIFY) the controller carries the CompStor vendor
// extensions that transport minions and queries to the in-storage
// processing subsystem (MINION_SEND, QUERY, TASK_LOAD).
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
	OpIdentify
	// Vendor extensions (the CompStor in-situ transport).
	OpVendorMinion   // deliver a minion; completes when in-situ task finishes
	OpVendorQuery    // administrative query (status, temperature, utilisation)
	OpVendorTaskLoad // dynamic task loading: install an executable at runtime
)

func (o Opcode) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpFlush:
		return "FLUSH"
	case OpTrim:
		return "TRIM"
	case OpIdentify:
		return "IDENTIFY"
	case OpVendorMinion:
		return "VENDOR_MINION"
	case OpVendorQuery:
		return "VENDOR_QUERY"
	case OpVendorTaskLoad:
		return "VENDOR_TASK_LOAD"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
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

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusInvalid:
		return "INVALID"
	case StatusCapacity:
		return "CAPACITY"
	case StatusInternal:
		return "INTERNAL"
	default:
		return fmt.Sprintf("STATUS(%d)", uint8(s))
	}
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
	// completion; a Read's Completion.Data is this same buffer.
	Data []byte

	// Vendor payload: an opaque structure handed to the backend, with its
	// serialised wire size so the fabric can charge the DMA.
	Payload      any
	PayloadBytes int64

	resp      *sim.Mailbox[*Completion]
	comp      *Completion // completion to fill, when the submitter lends one
	submitted sim.Time
	obsCtx    obs.Ctx // submitter's span, so device-side handling parents to it
}

// Completion is the controller's answer to one command.
type Completion struct {
	Status       Status
	Err          error  // detail for non-OK status
	Data         []byte // read data
	Payload      any    // vendor response structure
	PayloadBytes int64  // wire size of Payload
	Submitted    sim.Time
	Completed    sim.Time
}

// Latency returns the command's host-observed service time.
func (c *Completion) Latency() sim.Duration { return c.Completed.Sub(c.Submitted) }

// IdentifyData is the payload of an IDENTIFY completion.
type IdentifyData struct {
	Model         string
	CapacityBytes int64
	PageSize      int
	InSitu        bool // device carries an in-situ processing subsystem
}

// Backend is the device-side service the controller drives: the SSD's FTL
// plus, on CompStor devices, the vendor path into the ISPS.
type Backend interface {
	Model() string
	PageSize() int
	CapacityBytes() int64
	InSitu() bool
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
	// ioWorkers is the number of controller-side execution contexts; it models
	// the front-end's command-level parallelism.
	ioWorkers = 64
	// vendorWorkers service vendor commands (minions, queries) on their own
	// contexts so long-running in-situ tasks never starve the I/O path —
	// the hardware analogue is the separate admin/vendor queue pair.
	vendorWorkers = 8
)

// Controller is the device-side protocol engine. Create with NewController,
// then obtain the host-side handle with Driver.
type Controller struct {
	eng     *sim.Engine
	port    *pcie.Port
	backend Backend
	sq      *sim.Mailbox[*Command]
	vq      *sim.Mailbox[*Command]
	qd      *sim.Semaphore
	stats   Stats

	faultHook func(p *sim.Proc, cmd *Command) error

	// freeResp recycles completion mailboxes across Submits. A mailbox is
	// in the list only between commands (Submit holds it for exactly one
	// Put/Recv round trip), and everything runs in engine context, so no
	// locking is needed.
	freeResp []*sim.Mailbox[*Completion]
	// freeIO recycles the command and completion of the Driver's
	// convenience calls, which keep neither past their return.
	freeIO []*ioPair

	obs   *obs.Obs
	hists [8]*obs.Histogram // per-opcode host-observed latency
}

// SetFaultHook installs a protocol-level fault injector: it runs in the
// controller front-end after the SQE fetch, before the command is
// dispatched to the backend. Returning an error fails the command with
// StatusInternal — the host sees a completed-with-error CQE, which is how a
// dropped or garbled device response surfaces to a driver with a timeout.
// The hook runs in device context and may call p.Wait to model a slow
// front-end. Pass nil to clear.
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

// NewController starts a controller with its front-end processes servicing
// the submission and vendor queues.
func NewController(eng *sim.Engine, port *pcie.Port, backend Backend) *Controller {
	c := &Controller{
		eng:     eng,
		port:    port,
		backend: backend,
		sq:      sim.NewMailbox[*Command](),
		vq:      sim.NewMailbox[*Command](),
		qd:      sim.NewSemaphore(eng, queueDepth),
	}
	for i := 0; i < ioWorkers; i++ {
		eng.Go(fmt.Sprintf("nvme/fe%d", i), func(p *sim.Proc) { c.serve(p, c.sq) })
	}
	for i := 0; i < vendorWorkers; i++ {
		eng.Go(fmt.Sprintf("nvme/vfe%d", i), func(p *sim.Proc) { c.serve(p, c.vq) })
	}
	return c
}

// Stats returns protocol counters.
func (c *Controller) Stats() Stats { return c.stats }

// SetObs attaches an observability scope: per-opcode host-observed latency
// histograms (nvme.read … nvme.vendor_minion), a queue-depth admission wait
// histogram (nvme.qd_wait), snapshot-time counters from Stats, and — when
// tracing is on — a host-side span per Submit plus a device-side span per
// command, parented across the submission queue.
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

func (c *Controller) hist(op Opcode) *obs.Histogram {
	if int(op) < len(c.hists) {
		return c.hists[op]
	}
	return nil
}

// isVendor reports whether an opcode travels on the vendor queue.
func isVendor(op Opcode) bool {
	return op == OpVendorMinion || op == OpVendorQuery || op == OpVendorTaskLoad
}

// serve is one controller execution context draining a submission queue.
func (c *Controller) serve(p *sim.Proc, q *sim.Mailbox[*Command]) {
	for {
		cmd, ok := q.Recv(p)
		if !ok {
			return
		}
		var sp *obs.Span
		if c.obs != nil {
			sp = c.obs.BeginCtx(p, cmd.obsCtx, "nvme", cmd.Op.String())
		}
		comp := c.execute(p, cmd)
		comp.Completed = p.Now()
		sp.End()
		if c.obs != nil {
			c.hist(cmd.Op).Observe(comp.Latency())
		}
		// Post CQE and raise the interrupt.
		c.port.ToHost(p, cqeBytes)
		c.port.Message(p)
		cmd.resp.Put(comp)
	}
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
		comp.Data = cmd.Data
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
	case OpIdentify:
		comp.Payload = IdentifyData{
			Model:         c.backend.Model(),
			CapacityBytes: c.backend.CapacityBytes(),
			PageSize:      c.backend.PageSize(),
			InSitu:        c.backend.InSitu(),
		}
		comp.PayloadBytes = 4096
		c.port.ToHost(p, comp.PayloadBytes)
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

// Driver is the host-side handle: it rings the doorbell, enqueues the
// command, and waits for the completion interrupt.
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
	cmd.obsCtx = obs.CtxOf(p)
	if n := len(c.freeResp); n > 0 {
		cmd.resp = c.freeResp[n-1]
		c.freeResp[n-1] = nil
		c.freeResp = c.freeResp[:n-1]
	} else {
		cmd.resp = sim.NewMailbox[*Completion]()
	}
	cmd.submitted = p.Now()
	// Doorbell write.
	c.port.Message(p)
	if isVendor(cmd.Op) {
		c.vq.Put(cmd)
	} else {
		c.sq.Put(cmd)
	}
	comp, _ := cmd.resp.Recv(p)
	// The round trip is over: the mailbox is empty again and nothing else
	// holds it, so it can serve the next command.
	c.freeResp = append(c.freeResp, cmd.resp)
	cmd.resp = nil
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

// Read is a convenience wrapper issuing an OpRead into a fresh buffer the
// caller owns.
func (d *Driver) Read(p *sim.Proc, lba, pages int64) ([]byte, error) {
	dst := make([]byte, pages*int64(d.ctrl.backend.PageSize()))
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

// Identify is a convenience wrapper issuing an OpIdentify.
func (d *Driver) Identify(p *sim.Proc) (IdentifyData, error) {
	comp := d.Submit(p, &Command{Op: OpIdentify})
	if comp.Status != StatusOK {
		return IdentifyData{}, comp.Err
	}
	return comp.Payload.(IdentifyData), nil
}
