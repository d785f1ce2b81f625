// Package flash models a NAND flash array: channels, dies, planes, blocks
// and pages, with realistic operation latencies and per-channel bus
// bandwidth, backed by a per-block in-memory page store holding real bytes.
//
// The model enforces NAND programming rules (pages must be erased before
// being programmed; erase works on whole blocks), which is what makes the
// FTL layered above it meaningfully testable.
package flash

import (
	"errors"
	"fmt"
	"time"

	"compstor/internal/obs"
	"compstor/internal/sim"
)

// Geometry describes the physical organisation of the array.
type Geometry struct {
	Channels      int
	DiesPerChan   int
	PlanesPerDie  int
	BlocksPerPlan int
	PagesPerBlock int
	PageSize      int
}

// DefaultGeometry returns a laptop-scale geometry with the paper's
// channel-level parallelism (16 channels) but a reduced per-die capacity so
// whole-device tests stay fast. Capacity: 16ch × 1die × 1plane × 256blk ×
// 64pg × 4 KiB = 4 GiB.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:      16,
		DiesPerChan:   1,
		PlanesPerDie:  1,
		BlocksPerPlan: 256,
		PagesPerBlock: 64,
		PageSize:      4096,
	}
}

// PaperGeometry returns the 24 TB prototype's geometry for bandwidth
// analysis (not for byte-backed simulation): 16 channels, 8 dies/channel.
func PaperGeometry() Geometry {
	return Geometry{
		Channels:      16,
		DiesPerChan:   8,
		PlanesPerDie:  2,
		BlocksPerPlan: 2048,
		PagesPerBlock: 2816,
		PageSize:      16384,
	}
}

// Validate reports whether every dimension is positive.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.DiesPerChan <= 0 || g.PlanesPerDie <= 0 ||
		g.BlocksPerPlan <= 0 || g.PagesPerBlock <= 0 || g.PageSize <= 0 {
		return fmt.Errorf("flash: invalid geometry %+v", g)
	}
	return nil
}

// Blocks returns the total number of erase blocks in the array.
func (g Geometry) Blocks() int64 {
	return int64(g.Channels) * int64(g.DiesPerChan) * int64(g.PlanesPerDie) * int64(g.BlocksPerPlan)
}

// Pages returns the total number of pages in the array.
func (g Geometry) Pages() int64 { return g.Blocks() * int64(g.PagesPerBlock) }

// Bytes returns the raw capacity in bytes.
func (g Geometry) Bytes() int64 { return g.Pages() * int64(g.PageSize) }

// MediaBandwidth returns the aggregate channel-bus bandwidth in bytes/s —
// the "enormous aggregated bandwidth at the media interface" of the paper's
// Fig. 1 argument.
func (g Geometry) MediaBandwidth(t Timing) float64 {
	return float64(g.Channels) * t.ChannelBytesPerSec
}

// Timing holds NAND operation latencies and channel bandwidth.
type Timing struct {
	ReadPage           time.Duration
	ProgramPage        time.Duration
	EraseBlock         time.Duration
	ChannelBytesPerSec float64
}

// DefaultTiming returns MLC-class NAND timing with the paper's 533 MB/s
// channel buses.
func DefaultTiming() Timing {
	return Timing{
		ReadPage:           60 * time.Microsecond,
		ProgramPage:        600 * time.Microsecond,
		EraseBlock:         3 * time.Millisecond,
		ChannelBytesPerSec: 533e6,
	}
}

// Addr identifies a physical page.
type Addr struct {
	Channel int
	Die     int
	Plane   int
	Block   int
	Page    int
}

func (a Addr) String() string {
	return fmt.Sprintf("ch%d/die%d/pl%d/blk%d/pg%d", a.Channel, a.Die, a.Plane, a.Block, a.Page)
}

// Errors returned by device operations.
var (
	ErrOutOfRange = errors.New("flash: address out of range")
	ErrNotErased  = errors.New("flash: programming a non-erased page")
	ErrUnwritten  = errors.New("flash: reading an unwritten page")
	ErrPageSize   = errors.New("flash: data does not match page size")
	// ErrPowerLoss is returned by operations on a powered-off device, and by
	// operations the power cut interrupted mid-flight. A program interrupted
	// mid-flight leaves a torn page behind: partially-written cells with the
	// OOB area recorded, which only the payload CRC can expose.
	ErrPowerLoss = errors.New("flash: device power lost")
)

// OOB is the out-of-band (spare) area programmed atomically with its page.
// The FTL journals recovery metadata here: the logical page the data belongs
// to, a device-wide monotonically increasing sequence number, and a CRC32C
// of the page payload.
type OOB struct {
	LPN int64
	Seq uint64
	CRC uint32
}

// OOBBytes is the modelled size of the spare area: what an OOB-only scan
// read moves across the channel bus instead of a whole page.
const OOBBytes = 20

// NoLPN marks OOB written through the plain ProgramPage path (no journal
// metadata).
const NoLPN int64 = -1

// Stats counts media operations. Like all model state it is mutated only
// from engine context; reading it mid-run is safe when scheduled as an
// engine event (see the single-goroutine invariant in package obs).
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64
	OOBReads int64 // spare-area-only reads (recovery scans)
}

// Device is a NAND array attached to a simulation engine. All operations
// take a *sim.Proc and advance virtual time; data is stored for real.
type Device struct {
	eng    *sim.Engine
	geo    Geometry
	timing Timing

	chanBus []*sim.Link     // per-channel data bus
	dies    []*sim.Resource // per-die occupancy (channels*diesPerChan)
	dieDone []dieOps        // per-die WaitFn continuations, built once

	blocks       []block // linear block -> header; payload allocated on first program
	pagesPerSlab int
	maxErases    int64 // highest erase count of any block

	powered bool
	lastOff sim.Time // most recent power-off instant; -1 if never cut

	stats Stats

	faultHook func(op FaultOp, a Addr) error

	obs       *obs.Obs
	histRead  *obs.Histogram
	histProg  *obs.Histogram
	histErase *obs.Histogram
	histOOB   *obs.Histogram
	chTracks  []string // per-channel span track names
}

// block is one erase block's header. A fresh device holds nothing but these,
// so its cost is O(blocks) whatever the capacity.
type block struct {
	store  *blockStore // nil until the block's first program
	erases int64
}

// blockStore is a touched block's media: payload slabs, the spare areas and
// two presence bits per page. All of it is kept across erases (an erase only
// clears the bits), so a program into a slab that was ever touched copies
// into it and allocates nothing.
//
// The payload is not one block-sized allocation but slabs of slabBytes, each
// allocated when its first page is programmed: striped allocation opens a
// block on every die at once, and a drive that takes a few pages into each
// of 64 open blocks should not pay for 64 whole blocks.
//
// A page is in one of three states. Erased: neither bit. Written: a faulted
// program left the cells indeterminate — it must be erased before reuse but
// holds no record, so reads fail and ReadOOB reports ok=false. Stored:
// written and holding a payload plus spare area (a completed or torn
// program, or InjectRaw).
type blockStore struct {
	slabs   [][]byte // pagesPerSlab pages each; nil until touched
	oob     []OOB
	written []uint64 // bit per page: programmed since the last erase
	stored  []uint64 // bit per page: payload and spare area hold a record
}

// slabBytes is the payload allocation unit (rounded to whole pages, at least
// one): Go's largest small-object size class.
const slabBytes = 32 << 10

func hasBit(bits []uint64, pg int) bool { return bits[pg>>6]&(1<<(pg&63)) != 0 }
func setBit(bits []uint64, pg int)      { bits[pg>>6] |= 1 << (pg & 63) }

// dieOps holds one die's engine-side continuations for sim.Proc.WaitFn:
// each releases the die, charges its busy time and, for reads, books the
// channel transfer. They depend only on the die, so they are built once
// rather than as a fresh closure per media operation.
type dieOps struct {
	read, oobRead, program, erase func() sim.Time
}

// FaultOp identifies the media operation a fault hook intercepts.
type FaultOp int

// Fault-injectable operations.
const (
	FaultRead FaultOp = iota
	FaultProgram
	FaultErase
)

func (op FaultOp) String() string {
	switch op {
	case FaultRead:
		return "read"
	case FaultProgram:
		return "program"
	case FaultErase:
		return "erase"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// SetFaultHook installs a fault injector: it runs before each media
// operation (after timing is charged, as a real failed operation still
// costs its latency) and may force the operation to fail. Used by tests to
// exercise error propagation through the FTL, protocol, and application
// layers. Pass nil to clear.
func (d *Device) SetFaultHook(fn func(op FaultOp, a Addr) error) { d.faultHook = fn }

func (d *Device) fault(op FaultOp, a Addr) error {
	if d.faultHook == nil {
		return nil
	}
	return d.faultHook(op, a)
}

// NewDevice builds a NAND array. It panics on invalid geometry, since a
// device cannot exist without one.
func NewDevice(eng *sim.Engine, name string, geo Geometry, timing Timing) *Device {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	if timing.ChannelBytesPerSec <= 0 {
		panic("flash: non-positive channel bandwidth")
	}
	d := &Device{
		eng:     eng,
		geo:     geo,
		timing:  timing,
		blocks:  make([]block, geo.Blocks()),
		powered: true,
		lastOff: -1,
	}
	d.pagesPerSlab = max(1, slabBytes/geo.PageSize)
	for c := 0; c < geo.Channels; c++ {
		d.chanBus = append(d.chanBus, sim.NewLink(eng, fmt.Sprintf("%s/ch%d", name, c), timing.ChannelBytesPerSec, 0))
	}
	for i := 0; i < geo.Channels*geo.DiesPerChan; i++ {
		die := sim.NewResource(eng, 1)
		bus := d.chanBus[i/geo.DiesPerChan]
		// The sense/program/erase wait, die hand-back and (for reads) bus
		// transfer collapse into one engine-side continuation: the
		// bookkeeping runs at exactly the instants it did as separate waits,
		// but without waking the proc in between.
		done := func(busy time.Duration, xfer int64) func() sim.Time {
			return func() sim.Time {
				die.AddBusy(busy)
				die.Release()
				if xfer == 0 {
					return eng.Now()
				}
				return bus.TransferTime(xfer)
			}
		}
		d.dies = append(d.dies, die)
		d.dieDone = append(d.dieDone, dieOps{
			read:    done(timing.ReadPage, int64(geo.PageSize)),
			oobRead: done(timing.ReadPage, OOBBytes),
			program: done(timing.ProgramPage, 0),
			erase:   done(timing.EraseBlock, 0),
		})
	}
	return d
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// Now returns the device's engine's current virtual time.
func (d *Device) Now() sim.Time { return d.eng.Now() }

// Timing returns the device timing parameters.
func (d *Device) Timing() Timing { return d.timing }

// Stats returns the operation counters.
func (d *Device) Stats() Stats { return d.stats }

// SetObs attaches an observability scope: per-operation latency histograms
// (flash.read/program/erase/oob_read), per-channel bus utilisation
// timelines, snapshot-time counters pulled from Stats, and — when tracing
// is enabled — one span per media operation on its channel's track. A nil
// scope detaches everything except already-installed link hooks.
func (d *Device) SetObs(o *obs.Obs) {
	d.obs = o
	d.histRead = o.Histogram("flash.read")
	d.histProg = o.Histogram("flash.program")
	d.histErase = o.Histogram("flash.erase")
	d.histOOB = o.Histogram("flash.oob_read")
	d.chTracks = d.chTracks[:0]
	for c, bus := range d.chanBus {
		d.chTracks = append(d.chTracks, fmt.Sprintf("flash.ch%d", c))
		if o != nil {
			o.WatchLink(fmt.Sprintf("flash.ch%d.busy", c), time.Millisecond, bus)
		}
	}
	o.CounterFunc("flash.reads", func() int64 { return d.stats.Reads })
	o.CounterFunc("flash.programs", func() int64 { return d.stats.Programs })
	o.CounterFunc("flash.erases", func() int64 { return d.stats.Erases })
	o.CounterFunc("flash.oob_reads", func() int64 { return d.stats.OOBReads })
}

func (d *Device) check(a Addr) error {
	if a.Channel < 0 || a.Channel >= d.geo.Channels ||
		a.Die < 0 || a.Die >= d.geo.DiesPerChan ||
		a.Plane < 0 || a.Plane >= d.geo.PlanesPerDie ||
		a.Block < 0 || a.Block >= d.geo.BlocksPerPlan ||
		a.Page < 0 || a.Page >= d.geo.PagesPerBlock {
		return fmt.Errorf("%w: %v", ErrOutOfRange, a)
	}
	return nil
}

// dieIndex linearises the die coordinate of an address.
func (d *Device) dieIndex(a Addr) int { return a.Channel*d.geo.DiesPerChan + a.Die }

// touch returns the store of the block containing a, allocating it on the
// block's first program.
func (d *Device) touch(a Addr) *blockStore {
	b := &d.blocks[d.geo.BlockIndex(a)]
	if b.store == nil {
		ppb := d.geo.PagesPerBlock
		words := (ppb + 63) / 64
		bits := make([]uint64, 2*words)
		b.store = &blockStore{
			slabs:   make([][]byte, (ppb+d.pagesPerSlab-1)/d.pagesPerSlab),
			oob:     make([]OOB, ppb),
			written: bits[:words],
			stored:  bits[words:],
		}
	}
	return b.store
}

// payload returns page pg's bytes within its slab, allocating the slab on its
// first use.
func (d *Device) payload(s *blockStore, pg int) []byte {
	slab := &s.slabs[pg/d.pagesPerSlab]
	if *slab == nil {
		*slab = make([]byte, d.pagesPerSlab*d.geo.PageSize)
	}
	off := pg % d.pagesPerSlab * d.geo.PageSize
	return (*slab)[off : off+d.geo.PageSize]
}

// storedPage returns the payload (a view into the slab) and spare area of a
// page holding a record; ok is false for erased and written-only pages.
func (d *Device) storedPage(a Addr) (data []byte, oob OOB, ok bool) {
	s := d.blocks[d.geo.BlockIndex(a)].store
	if s == nil || !hasBit(s.stored, a.Page) {
		return nil, OOB{}, false
	}
	return d.payload(s, a.Page), s.oob[a.Page], true
}

// storePage records payload and spare area at a and marks the page stored.
// It returns the slab's copy, which the torn-program path then damages.
func (d *Device) storePage(a Addr, data []byte, oob OOB) []byte {
	s := d.touch(a)
	page := d.payload(s, a.Page)
	clear(page[copy(page, data):])
	s.oob[a.Page] = oob
	setBit(s.written, a.Page)
	setBit(s.stored, a.Page)
	return page
}

// PowerOff cuts the device's power immediately. Operations in flight at the
// cut fail with ErrPowerLoss when their timing completes; a program caught
// mid-flight leaves a torn page behind. Idempotent.
func (d *Device) PowerOff() {
	if d.powered {
		d.powered = false
		d.lastOff = d.eng.Now()
	}
}

// PowerOn restores power. The media keeps whatever state the cut left —
// including torn pages — which is exactly what mount-time recovery must
// cope with.
func (d *Device) PowerOn() { d.powered = true }

// PoweredOff reports whether the device is currently without power.
func (d *Device) PoweredOff() bool { return !d.powered }

// cutDuring reports whether an operation started at `start` was interrupted
// by a power cut (the device is off now, or it was cut and restored while
// the operation's timing elapsed).
func (d *Device) cutDuring(start sim.Time) bool {
	return !d.powered || (d.lastOff >= 0 && d.lastOff >= start)
}

// Buffer ownership. The slab is private to the device: every entry point
// copies across its boundary and none hands out a view of stored bytes.
// ReadPageInto and PeekInto copy the payload into the caller's dst; ReadPage
// and ReadPageOOB return a fresh slice the caller owns; ProgramPage,
// ProgramPageOOB and InjectRaw copy the caller's data when the operation
// completes, so the caller's buffer must stay unchanged until they return
// and is the caller's again afterwards.

// ReadPage reads one page's payload into a fresh buffer; see ReadPageInto.
// It and ProgramPage have no caller in this module outside tests: they
// stay for the frozen bench/ module (bench/layers.go).
func (d *Device) ReadPage(p *sim.Proc, a Addr) ([]byte, error) {
	data, _, err := d.ReadPageOOB(p, a)
	return data, err
}

// ReadPageOOB reads one page and its spare area into a fresh buffer; see
// ReadPageInto.
func (d *Device) ReadPageOOB(p *sim.Proc, a Addr) ([]byte, OOB, error) {
	out := make([]byte, d.geo.PageSize)
	oob, err := d.ReadPageInto(p, a, out)
	if err != nil {
		return nil, OOB{}, err
	}
	return out, oob, nil
}

// ReadPageInto reads one page into dst (exactly one page long) and returns
// its spare area: the die is busy for tR, then the page crosses the channel
// bus. dst is written only on success. Reading an unwritten page returns
// ErrUnwritten (raw NAND would return all-0xFF; surfacing it as an error
// catches FTL bugs).
func (d *Device) ReadPageInto(p *sim.Proc, a Addr, dst []byte) (OOB, error) {
	if err := d.checkRead(a, dst); err != nil {
		return OOB{}, err
	}
	start := p.Now()
	if d.obs != nil {
		sp := d.obs.Begin(p, d.chTracks[a.Channel], "read")
		defer func() {
			d.histRead.Observe(p.Now().Sub(start))
			sp.End()
		}()
	}
	di := d.dieIndex(a)
	d.dies[di].Acquire(p)
	p.WaitFn(d.timing.ReadPage, d.dieDone[di].read)
	return d.finishRead(a, start, dst)
}

// checkRead rejects a page read before it costs any time.
func (d *Device) checkRead(a Addr, dst []byte) error {
	if err := d.check(a); err != nil {
		return err
	}
	if len(dst) != d.geo.PageSize {
		return fmt.Errorf("%w: got %d bytes, page is %d", ErrPageSize, len(dst), d.geo.PageSize)
	}
	if !d.powered {
		return fmt.Errorf("%w: read %v", ErrPowerLoss, a)
	}
	return nil
}

// finishRead is a page read from the instant its transfer ends.
func (d *Device) finishRead(a Addr, start sim.Time, dst []byte) (OOB, error) {
	if d.cutDuring(start) {
		return OOB{}, fmt.Errorf("%w: read %v", ErrPowerLoss, a)
	}
	d.stats.Reads++
	if err := d.fault(FaultRead, a); err != nil {
		return OOB{}, err
	}
	data, oob, ok := d.storedPage(a)
	if !ok {
		return OOB{}, fmt.Errorf("%w: %v", ErrUnwritten, a)
	}
	copy(dst, data)
	return oob, nil
}

// ReadOp is ReadPageInto run in engine context: the page operation of a
// multi-page read, which has no process per page (DESIGN.md §21). It does what
// the blocking read does at the same instants and dispatch positions — the
// die's FIFO, an event when the sense ends, an event when the transfer ends.
type ReadOp struct {
	d     *Device
	done  func(OOB, error)
	a     Addr
	dst   []byte // the caller's, from StartRead until done is called
	start sim.Time
	span  obs.Span
	// The steps, bound once so a read allocates nothing.
	granted, sensed, landed func()
}

// Init binds the op to its owner: done gets each outcome.
func (op *ReadOp) Init(done func(OOB, error)) {
	op.done = done
	op.granted, op.sensed, op.landed = op.onGrant, op.onSensed, op.onLanded
}

// StartRead starts reading the page at a into dst on op, from engine context,
// under the span parent. An error rejects the read before it cost anything and
// done is not called; otherwise done runs in the event the transfer ends in.
func (d *Device) StartRead(op *ReadOp, a Addr, dst []byte, parent obs.Ctx) error {
	if err := d.checkRead(a, dst); err != nil {
		return err
	}
	op.d, op.a, op.dst, op.start = d, a, dst, d.eng.Now()
	if d.obs != nil {
		op.span = d.obs.BeginAt(op.start, parent, d.chTracks[a.Channel], "read")
	}
	d.dies[d.dieIndex(a)].AcquireFn(op.granted)
	return nil
}

func (op *ReadOp) onGrant() {
	eng := op.d.eng
	eng.At(eng.Now().Add(op.d.timing.ReadPage), op.sensed)
}

func (op *ReadOp) onSensed() {
	d := op.d
	d.eng.At(d.dieDone[d.dieIndex(op.a)].read(), op.landed)
}

func (op *ReadOp) onLanded() {
	d, now := op.d, op.d.eng.Now()
	oob, err := d.finishRead(op.a, op.start, op.dst)
	d.histRead.Observe(now.Sub(op.start))
	op.span.EndAt(now)
	op.dst = nil
	op.done(oob, err)
}

// ReadOOB reads only the spare area of a page — the fast scan primitive
// recovery uses to walk the whole media without paying full page transfers.
// The die is still busy for tR (NAND senses the whole page), but only
// OOBBytes cross the bus. ok is false when the page holds no OOB record
// (unwritten, or torn so badly the spare area is unreadable).
func (d *Device) ReadOOB(p *sim.Proc, a Addr) (oob OOB, ok bool, err error) {
	if err := d.check(a); err != nil {
		return OOB{}, false, err
	}
	if !d.powered {
		return OOB{}, false, fmt.Errorf("%w: oob read %v", ErrPowerLoss, a)
	}
	start := p.Now()
	if d.obs != nil {
		sp := d.obs.Begin(p, d.chTracks[a.Channel], "oob_read")
		defer func() {
			d.histOOB.Observe(p.Now().Sub(start))
			sp.End()
		}()
	}
	di := d.dieIndex(a)
	d.dies[di].Acquire(p)
	p.WaitFn(d.timing.ReadPage, d.dieDone[di].oobRead)
	if d.cutDuring(start) {
		return OOB{}, false, fmt.Errorf("%w: oob read %v", ErrPowerLoss, a)
	}
	d.stats.OOBReads++
	if err := d.fault(FaultRead, a); err != nil {
		return OOB{}, false, err
	}
	_, oob, ok = d.storedPage(a)
	return oob, ok, nil
}

// ProgramPage writes one page with an empty spare area; see ProgramPageOOB.
func (d *Device) ProgramPage(p *sim.Proc, a Addr, data []byte) error {
	return d.ProgramPageOOB(p, a, data, OOB{LPN: NoLPN})
}

// ProgramPageOOB writes one page and its spare area atomically: data
// crosses the channel bus, then the die is busy for tProg. data must be
// exactly one page. Programming a page that has not been erased since its
// last program returns ErrNotErased. A power cut during the program leaves
// a torn page: cells were mid-write, so the payload is corrupted while the
// spare area reads back — the condition oob.CRC exists to expose.
func (d *Device) ProgramPageOOB(p *sim.Proc, a Addr, data []byte, oob OOB) error {
	if err := d.check(a); err != nil {
		return err
	}
	if len(data) != d.geo.PageSize {
		return fmt.Errorf("%w: got %d bytes, page is %d", ErrPageSize, len(data), d.geo.PageSize)
	}
	if !d.powered {
		return fmt.Errorf("%w: program %v", ErrPowerLoss, a)
	}
	if d.IsWritten(a) {
		return fmt.Errorf("%w: %v", ErrNotErased, a)
	}
	start := p.Now()
	if d.obs != nil {
		sp := d.obs.Begin(p, d.chTracks[a.Channel], "program")
		defer func() {
			d.histProg.Observe(p.Now().Sub(start))
			sp.End()
		}()
	}
	d.chanBus[a.Channel].Transfer(p, int64(d.geo.PageSize))
	di := d.dieIndex(a)
	d.dies[di].Acquire(p)
	p.WaitFn(d.timing.ProgramPage, d.dieDone[di].program)
	d.stats.Programs++
	if d.cutDuring(start) {
		torn := d.storePage(a, data, oob)
		for i := len(torn) / 2; i < len(torn); i++ {
			torn[i] ^= 0xFF // cells that never finished programming
		}
		return fmt.Errorf("%w: torn program %v", ErrPowerLoss, a)
	}
	if err := d.fault(FaultProgram, a); err != nil {
		// A failed program leaves the page in an indeterminate, non-erased
		// state; mark it written so the FTL must erase before retrying here.
		setBit(d.touch(a).written, a.Page)
		return err
	}
	d.storePage(a, data, oob)
	return nil
}

// EraseBlock erases the whole block containing a (a.Page is ignored),
// clearing all its pages and bumping the block's wear counter. A power cut
// during the erase leaves the block's old contents intact (the model
// resolves a half-erased block to "not erased", the conservative outcome
// for recovery).
func (d *Device) EraseBlock(p *sim.Proc, a Addr) error {
	a.Page = 0
	if err := d.check(a); err != nil {
		return err
	}
	if !d.powered {
		return fmt.Errorf("%w: erase %v", ErrPowerLoss, a)
	}
	start := p.Now()
	if d.obs != nil {
		sp := d.obs.Begin(p, d.chTracks[a.Channel], "erase")
		defer func() {
			d.histErase.Observe(p.Now().Sub(start))
			sp.End()
		}()
	}
	di := d.dieIndex(a)
	d.dies[di].Acquire(p)
	p.WaitFn(d.timing.EraseBlock, d.dieDone[di].erase)
	if d.cutDuring(start) {
		return fmt.Errorf("%w: erase %v", ErrPowerLoss, a)
	}
	if err := d.fault(FaultErase, a); err != nil {
		return err
	}
	b := &d.blocks[d.geo.BlockIndex(a)]
	if b.store != nil {
		clear(b.store.written)
		clear(b.store.stored)
	}
	b.erases++
	if b.erases > d.maxErases {
		d.maxErases = b.erases
	}
	d.stats.Erases++
	return nil
}

// EraseCount returns the wear (erase cycles) of the block containing a
// (a.Page is ignored).
func (d *Device) EraseCount(a Addr) int64 {
	a.Page = 0
	if d.check(a) != nil {
		return 0
	}
	return d.blocks[d.geo.BlockIndex(a)].erases
}

// MaxEraseCount returns the highest wear across all blocks.
func (d *Device) MaxEraseCount() int64 { return d.maxErases }

// IsWritten reports whether the page at a has been programmed since its
// block's last erase (whether or not the program left a readable record).
func (d *Device) IsWritten(a Addr) bool {
	if d.check(a) != nil {
		return false
	}
	s := d.blocks[d.geo.BlockIndex(a)].store
	return s != nil && hasBit(s.written, a.Page)
}

// CorruptPage silently flips bits in the stored payload of a (the spare
// area is untouched), modelling retention/disturb corruption that only a
// payload CRC can catch. Reports whether there was data to corrupt. No
// timing is charged: corruption is a state change, not an operation.
func (d *Device) CorruptPage(a Addr) bool {
	if d.check(a) != nil {
		return false
	}
	data, _, ok := d.storedPage(a)
	if !ok {
		return false
	}
	// Overwrite rather than xor: damage must be sticky, so corrupting the
	// same page again (e.g. on a read retry) cannot undo itself.
	for i := 0; i < len(data) && i < 64; i++ {
		data[i] = 0x5A ^ byte(i)
	}
	return true
}

// InjectRaw force-stores payload bytes and an OOB record at a, bypassing
// programming rules and timing. Test/fuzz seam for planting malformed
// on-media state that recovery must survive. Short payloads are
// zero-padded; long ones truncated.
func (d *Device) InjectRaw(a Addr, data []byte, oob OOB) error {
	if err := d.check(a); err != nil {
		return err
	}
	d.storePage(a, data, oob)
	return nil
}

// PeekInto copies the payload stored at a into dst (one page, or nil) and
// returns its spare area, with none of a read's cost: no timing, counters,
// fault hook or power check. It serves the read cache's hits and test
// inspection. ok is false when a holds no record; dst is then untouched.
func (d *Device) PeekInto(a Addr, dst []byte) (OOB, bool) {
	if d.check(a) != nil {
		return OOB{}, false
	}
	data, oob, ok := d.storedPage(a)
	copy(dst, data)
	return oob, ok
}

// ChannelBus exposes channel c's bus link for utilisation reporting.
func (d *Device) ChannelBus(c int) *sim.Link { return d.chanBus[c] }

// Die exposes die i's occupancy station (channel-major) for utilisation reporting.
func (d *Device) Die(i int) *sim.Resource { return d.dies[i] }
