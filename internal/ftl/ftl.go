// Package ftl implements a page-level flash translation layer over a
// flash.Device: logical-to-physical page mapping, channel-striped
// allocation, greedy garbage collection with wear-aware victim selection,
// over-provisioning, and TRIM.
//
// The layer is crash-consistent: every program carries an OOB journal
// record (LPN, device-wide sequence number, payload CRC32C), the L2P map is
// periodically checkpointed into a reserved block region, TRIMs are
// journaled before they unmap, and Recover rebuilds the exact
// acknowledged state from media after a power cut. Every host read is
// CRC-verified, so corruption surfaces as ErrCorrupt rather than silent
// wrong bytes.
//
// It is the "SSD controller software ... responsible for the flash
// management, garbage collections, and table keeping tasks" of the paper's
// software stack, and serves both the NVMe front-end (host reads/writes)
// and the ISPS flash-access device driver.
package ftl

import (
	"errors"
	"fmt"

	"compstor/internal/flash"
	"compstor/internal/obs"
	"compstor/internal/sim"
)

// Config tunes the translation layer.
type Config struct {
	// OverProvision is the fraction of raw capacity hidden from the host
	// (spare blocks for GC headroom). Typical enterprise values: 0.07–0.28.
	OverProvision float64
	// Striping selects channel-striped write allocation (the production
	// layout). When false, writes fill one block at a time, serialising on a
	// single channel — the ablation baseline for the media-parallelism
	// benches.
	Striping bool
	// CheckpointEvery is the journal-record count (host page writes plus
	// TRIM records) between automatic L2P checkpoints. The effective
	// trigger also scales with the mapped-page count so serialising the
	// full map stays a bounded fraction of write work, so zero leaves that
	// scaling alone. DefaultConfig sets 4096; negative disables automatic
	// checkpoints (explicit Checkpoint still works).
	CheckpointEvery int
	// Obs optionally attaches an observability scope: read/write latency
	// histograms, GC-pause and checkpoint histograms, stats counters, and
	// spans for GC, checkpoints, and mount-time recovery. Living in Config
	// means Recover-built FTLs are instrumented from the first scan read.
	Obs *obs.Obs
}

// DefaultConfig returns 7% over-provisioning with striping on and
// checkpoints every 4096 journal records.
func DefaultConfig() Config {
	return Config{OverProvision: 0.07, Striping: true, CheckpointEvery: 4096}
}

// Errors returned by FTL operations.
var (
	ErrCapacity = errors.New("ftl: logical address beyond exported capacity")
	ErrFull     = errors.New("ftl: no free blocks (over-provisioning exhausted)")
	// ErrCorrupt is a read whose payload failed CRC verification against the
	// page's OOB record (or whose OOB names a different logical page):
	// uncorrectable media corruption, surfaced as a media error so upper
	// layers can retry or fail over — never as silent wrong bytes.
	ErrCorrupt = errors.New("ftl: page failed CRC verification (uncorrectable corruption)")
)

// Stats describes FTL activity. Mutated only from engine context; see the
// single-goroutine invariant in package obs for how to read it mid-run.
type Stats struct {
	HostWrites       int64 // pages written on behalf of the host / ISPS
	HostReads        int64 // pages read on behalf of the host / ISPS
	GCWrites         int64 // pages relocated by garbage collection / retirement
	GCRuns           int64 // victim blocks collected
	Trims            int64 // pages unmapped by TRIM
	TrimRecords      int64 // TRIM journal records written
	Checkpoints      int64 // L2P checkpoints committed
	CheckpointWrites int64 // pages programmed into checkpoint regions
	CheckpointFails  int64 // background checkpoints abandoned on a media fault
	RetiredBlocks    int64 // grown-bad blocks taken out of service
	CorruptReads     int64 // host reads that failed CRC verification
}

// WriteAmplification returns (host+GC)/host page writes; 1.0 when GC never
// ran, 0 when nothing was written.
func (s Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(s.HostWrites+s.GCWrites) / float64(s.HostWrites)
}

type blockState struct {
	nextPage int32 // next unwritten page slot; == PagesPerBlock when sealed
	valid    int32 // live slots of p2l (mapped data + live TRIM records), kept by setLPNAt
	// inflight counts programs issued but not yet mapped, so concurrent
	// writers' target blocks are never GC victims.
	inflight int32
	active   bool
	bad      bool // grown-bad: read-only, never erased or reused
	// p2l maps each page slot to the logical page whose live data it holds,
	// oobTrim for a TRIM record not yet covered by a checkpoint, -1 for
	// garbage. Allocated on the block's first mapping, kept across erases.
	p2l []int64
}

// FTL is a page-mapping translation layer. It is not safe for concurrent
// use from multiple goroutines; in the simulation all callers run on the
// engine's single-threaded process layer.
type FTL struct {
	dev *flash.Device
	geo flash.Geometry
	cfg Config

	ppb int64 // geo.PagesPerBlock

	l2p mapTable // logical page -> physical page and journal sequence

	blocks     []blockState
	free       [][]int64 // per-allocation-unit (channel x die) free block stacks
	freeBlocks int       // total length of the free stacks
	active     []int64   // per-unit active block (-1 if none)
	nextUnit   int       // round-robin write unit cursor
	units      int       // Channels * DiesPerChan parallel allocation units
	pageFree   [][]byte  // see getPage

	logicalPages int64
	stats        Stats
	inGC         bool
	inflight     int // sum of blockState.inflight: the checkpoint drains it

	// Durability state: seq is the next journal sequence number (strictly
	// increasing across writes, TRIM records, and checkpoints); ckptSeq is
	// the newest durable checkpoint's sequence (0 = none); records counts
	// journal records since it. trimPages maps the page of each TRIM record
	// not yet superseded by a checkpoint to its sequence (the page's p2l slot
	// holds oobTrim, so GC relocates it). The reserved checkpoint regions
	// ping-pong: regions[nextRegion] takes the next checkpoint.
	seq             uint64
	ckptSeq         uint64
	records         int
	inCkpt          bool
	trimPages       map[int64]uint64
	regions         [2][]int64
	nextRegion      int
	reservedPerUnit int

	// Wake on inCkpt clearing, on inflight reaching 0, on inGC clearing.
	ckptDone, drained, gcDone sim.Cond

	obs       *obs.Obs
	histRead  *obs.Histogram
	histWrite *obs.Histogram
	histGC    *obs.Histogram
	histCkpt  *obs.Histogram
}

// New builds an FTL over dev. All blocks start free (the device is assumed
// fresh; pages of a fresh device are unwritten, matching erased state). To
// mount a device that already holds data — e.g. after a power cut — use
// Recover instead.
func New(dev *flash.Device, cfg Config) *FTL {
	geo := dev.Geometry()
	if cfg.OverProvision < 0 || cfg.OverProvision >= 0.9 {
		panic(fmt.Sprintf("ftl: unreasonable over-provisioning %g", cfg.OverProvision))
	}
	units := geo.Channels * geo.DiesPerChan
	reserved, regions := reservedLayout(geo, cfg.OverProvision)
	f := &FTL{
		dev:             dev,
		geo:             geo,
		cfg:             cfg,
		ppb:             int64(geo.PagesPerBlock),
		blocks:          make([]blockState, geo.Blocks()),
		active:          make([]int64, units),
		free:            make([][]int64, units),
		units:           units,
		seq:             1,
		trimPages:       make(map[int64]uint64),
		regions:         regions,
		reservedPerUnit: reserved,
	}
	perUnit := f.perUnitBlocks()
	for u := 0; u < units; u++ {
		f.active[u] = -1
		f.free[u] = make([]int64, 0, perUnit)
		base := int64(u) * perUnit
		// Push in reverse so blocks pop in ascending order; the first
		// reservedPerUnit slots of every unit belong to checkpoint regions.
		for b := perUnit - 1; b >= int64(reserved); b-- {
			f.free[u] = append(f.free[u], base+b)
		}
		f.freeBlocks += len(f.free[u])
	}
	f.logicalPages = int64(float64((geo.Blocks()-int64(units)*int64(reserved))*int64(geo.PagesPerBlock)) * (1 - cfg.OverProvision))
	f.l2p = newMapTable(f.logicalPages)
	f.obs = cfg.Obs
	f.histRead = f.obs.Histogram("ftl.read")
	f.histWrite = f.obs.Histogram("ftl.write")
	f.histGC = f.obs.Histogram("ftl.gc_pause")
	f.histCkpt = f.obs.Histogram("ftl.checkpoint")
	// Pull-style counters read the live struct at snapshot time; a remount
	// re-registers under the same names, so the newest FTL wins.
	f.obs.CounterFunc("ftl.host_writes", func() int64 { return f.stats.HostWrites })
	f.obs.CounterFunc("ftl.host_reads", func() int64 { return f.stats.HostReads })
	f.obs.CounterFunc("ftl.gc_writes", func() int64 { return f.stats.GCWrites })
	f.obs.CounterFunc("ftl.gc_runs", func() int64 { return f.stats.GCRuns })
	f.obs.CounterFunc("ftl.trims", func() int64 { return f.stats.Trims })
	f.obs.CounterFunc("ftl.checkpoints", func() int64 { return f.stats.Checkpoints })
	f.obs.CounterFunc("ftl.checkpoint_fails", func() int64 { return f.stats.CheckpointFails })
	f.obs.CounterFunc("ftl.retired_blocks", func() int64 { return f.stats.RetiredBlocks })
	f.obs.CounterFunc("ftl.corrupt_reads", func() int64 { return f.stats.CorruptReads })
	return f
}

// perUnitBlocks returns the number of blocks per allocation unit.
func (f *FTL) perUnitBlocks() int64 {
	return int64(f.geo.PlanesPerDie) * int64(f.geo.BlocksPerPlan)
}

// unitOf returns the allocation unit (channel x die) of a flat block index.
func (f *FTL) unitOf(blk int64) int {
	return int(blk / f.perUnitBlocks())
}

// PageSize returns the logical page size (== flash page size).
func (f *FTL) PageSize() int { return f.geo.PageSize }

// LogicalPages returns the number of pages exported to the host.
func (f *FTL) LogicalPages() int64 { return f.logicalPages }

// Stats returns activity counters.
func (f *FTL) Stats() Stats { return f.stats }

func (f *FTL) checkLPN(lpn int64) error {
	f.l2p.live()
	if lpn < 0 || lpn >= f.logicalPages {
		return fmt.Errorf("%w: lpn %d of %d", ErrCapacity, lpn, f.logicalPages)
	}
	return nil
}

// ReadPageInto reads logical page lpn into dst (exactly one page long),
// verified against the page's OOB record: a payload CRC mismatch, or an OOB
// naming a different logical page, returns ErrCorrupt. Unmapped pages read
// as zeroes without touching the media, as on a real SSD. On error dst holds
// nothing the caller may use.
func (f *FTL) ReadPageInto(p *sim.Proc, lpn int64, dst []byte) error {
	ppn, err := f.lookupRead(lpn, dst)
	if err != nil || ppn < 0 {
		return err
	}
	defer f.obs.Time(p, "ftl", "read", f.histRead).End()
	f.stats.HostReads++
	oob, err := f.dev.ReadPageInto(p, f.geo.AddrOfPage(ppn), dst)
	if err != nil {
		return err
	}
	return f.verifyRead(lpn, ppn, dst, oob)
}

// lookupRead validates a page read and resolves it; an unmapped page
// (ppn < 0) is served here, since it never reaches the media.
func (f *FTL) lookupRead(lpn int64, dst []byte) (ppn int64, err error) {
	if err := f.checkLPN(lpn); err != nil {
		return -1, err
	}
	if len(dst) != f.geo.PageSize {
		return -1, fmt.Errorf("ftl: read into %d bytes, page is %d", len(dst), f.geo.PageSize)
	}
	ppn = f.l2p.get(lpn).ppn
	if ppn < 0 {
		clear(dst)
	}
	return ppn, nil
}

// verifyRead holds the page the media returned for lpn to its OOB record.
func (f *FTL) verifyRead(lpn, ppn int64, data []byte, oob flash.OOB) error {
	if oob.LPN != lpn || pageCRC(data) != oob.CRC {
		f.stats.CorruptReads++
		return fmt.Errorf("%w: lpn %d at %v", ErrCorrupt, lpn, f.geo.AddrOfPage(ppn))
	}
	return nil
}

// PeekPageInto copies logical page lpn, as its live mapping resolves it, into
// dst with no timing and no media operation: the read cache's hit path,
// which keeps no bytes of its own. ok is false when the mapped page fails
// its OOB record (another LPN, or a payload CRC mismatch); dst then holds
// nothing the caller may use. Unmapped pages read as zeroes.
func (f *FTL) PeekPageInto(lpn int64, dst []byte) (ok bool) {
	ppn := f.l2p.get(lpn).ppn
	if ppn < 0 {
		clear(dst)
		return true
	}
	oob, ok := f.dev.PeekInto(f.geo.AddrOfPage(ppn), dst)
	return ok && oob.LPN == lpn && pageCRC(dst) == oob.CRC
}

// ReadOp is ReadPageInto run in engine context, over a flash.ReadOp: the
// page operation of a multi-page read (DESIGN.md §14), one read at a time.
type ReadOp struct {
	media flash.ReadOp
	done  func(error)
	f     *FTL
	lpn   int64
	ppn   int64
	dst   []byte // the caller's, from StartRead until done is called
	start sim.Time
	span  obs.Span
}

// Init binds the op to its owner: done gets each outcome.
func (op *ReadOp) Init(done func(error)) {
	op.done = done
	op.media.Init(op.landed)
}

// StartRead is ReadPageInto from engine context, under the span parent.
// finished reports a read over before the call returned — a rejected
// argument, an unmapped page's zero fill, a device without power — with its
// outcome in err; otherwise op's done gets it, in the event the page lands in.
func (f *FTL) StartRead(op *ReadOp, lpn int64, dst []byte, parent obs.Ctx) (finished bool, err error) {
	ppn, err := f.lookupRead(lpn, dst)
	if err != nil || ppn < 0 {
		return true, err
	}
	op.f, op.lpn, op.ppn, op.dst, op.start = f, lpn, ppn, dst, f.dev.Now()
	op.span = f.obs.BeginAt(op.start, parent, "ftl", "read")
	if c := op.span.Ctx(); c.Valid() {
		parent = c
	}
	f.stats.HostReads++
	if err := f.dev.StartRead(&op.media, f.geo.AddrOfPage(ppn), dst, parent); err != nil {
		op.end()
		return true, err
	}
	return false, nil
}

func (op *ReadOp) landed(oob flash.OOB, err error) {
	if err == nil {
		err = op.f.verifyRead(op.lpn, op.ppn, op.dst, oob)
	}
	op.end()
	op.done(err)
}

func (op *ReadOp) end() {
	now := op.f.dev.Now()
	op.f.histRead.Observe(now.Sub(op.start))
	op.span.EndAt(now)
	op.dst = nil
}

// WritePage stores data (exactly one page) at logical page lpn, allocating
// a fresh physical page and invalidating any previous mapping. The program
// carries a journal OOB record, so an acknowledged write is durable across
// power loss once it returns. Foreground GC runs first if the free pool is
// low, and a checkpoint if the journal has grown long.
func (f *FTL) WritePage(p *sim.Proc, lpn int64, data []byte) error {
	if err := f.checkLPN(lpn); err != nil {
		return err
	}
	if len(data) != f.geo.PageSize {
		return fmt.Errorf("ftl: write of %d bytes, page is %d", len(data), f.geo.PageSize)
	}
	defer f.obs.Time(p, "ftl", "write", f.histWrite).End()
	f.waitCheckpoint(p)
	if err := f.maybeCheckpoint(p); err != nil {
		return err
	}
	if err := f.maybeGC(p); err != nil {
		return err
	}
	s := f.seq
	f.seq++
	oob := flash.OOB{LPN: lpn, Seq: s, CRC: pageCRC(data)}
	ppn, err := f.appendRecord(p, data, oob, true)
	if err != nil {
		return err
	}
	f.remap(lpn, ppn, s)
	f.records++
	f.stats.HostWrites++
	return nil
}

// appendRecord allocates a physical page and programs data+oob into it.
// On a program fault it retires the grown-bad block and retries on a fresh
// one (bounded), so a single bad block never fails a host write. The
// inflight guard keeps GC off the target block for the program's duration.
// Sequence numbers are allocated by the caller immediately before this
// call, with no intervening yield, so a checkpoint's inflight drain is a
// complete barrier for records older than its snapshot.
func (f *FTL) appendRecord(p *sim.Proc, data []byte, oob flash.OOB, allowRetire bool) (int64, error) {
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		ppn, err := f.alloc()
		if err != nil {
			return -1, err
		}
		blk := ppn / f.ppb
		f.blocks[blk].inflight++
		f.inflight++
		err = f.dev.ProgramPageOOB(p, f.geo.AddrOfPage(ppn), data, oob)
		f.blocks[blk].inflight--
		if f.inflight--; f.inflight == 0 {
			f.drained.Broadcast()
		}
		if err == nil {
			return ppn, nil
		}
		lastErr = err
		if !allowRetire || errors.Is(err, flash.ErrPowerLoss) {
			return -1, err
		}
		if rerr := f.retireBlock(p, blk); rerr != nil {
			return -1, errors.Join(err, rerr)
		}
	}
	return -1, lastErr
}

// remap points lpn at ppn for the journal record with sequence seq,
// invalidating the old physical page if any. A record superseded while its
// program was in flight (a newer write or TRIM won the race) is left
// unmapped garbage for GC.
func (f *FTL) remap(lpn, ppn int64, seq uint64) {
	e := f.l2p.row(lpn)
	if e.seq >= seq {
		return
	}
	if e.ppn >= 0 {
		f.setLPNAt(e.ppn, -1)
	} else {
		f.l2p.mapped++
	}
	*e = mapEntry{ppn: ppn, seq: seq}
	f.setLPNAt(ppn, lpn)
}

// moveMapping repoints the live record lpn (oobTrim for a TRIM record) from
// oldPPN to newPPN after a relocation that copied it verbatim (same OOB,
// same sequence), so a data row's seq is deliberately untouched.
func (f *FTL) moveMapping(lpn, oldPPN, newPPN int64) {
	f.setLPNAt(oldPPN, -1)
	f.setLPNAt(newPPN, lpn)
	if lpn == oobTrim {
		f.trimPages[newPPN] = f.trimPages[oldPPN]
		delete(f.trimPages, oldPPN)
		return
	}
	f.l2p.row(lpn).ppn = newPPN
}

// Trim unmaps count logical pages starting at lpn. The revocation is
// journaled to media before any mapping is dropped, so an acknowledged TRIM
// is never resurrected by recovery. Later reads return zeroes; the freed
// pages become GC fodder.
func (f *FTL) Trim(p *sim.Proc, lpn, count int64) error {
	if count <= 0 {
		return nil
	}
	if err := f.checkLPN(lpn); err != nil {
		return err
	}
	if err := f.checkLPN(lpn + count - 1); err != nil {
		return err
	}
	mapped := false
	for i := int64(0); i < count && !mapped; i++ {
		mapped = f.l2p.get(lpn+i).ppn >= 0
	}
	if !mapped {
		return nil // nothing durable to revoke
	}
	f.waitCheckpoint(p)
	if err := f.maybeGC(p); err != nil {
		return err
	}
	s := f.seq
	f.seq++
	rec := f.getPage()
	encodeTrimRecord(rec, lpn, count)
	ppn, err := f.appendRecord(p, rec, flash.OOB{LPN: oobTrim, Seq: s, CRC: pageCRC(rec)}, true)
	f.putPage(rec)
	if err != nil {
		return err // record not durable: the TRIM never happened
	}
	f.trimPages[ppn] = s
	f.setLPNAt(ppn, oobTrim)
	f.unmapRange(lpn, count, s)
	f.records++
	f.stats.TrimRecords++
	return nil
}

// unmapRange drops the mappings of count logical pages from lpn on for the
// TRIM record with sequence seq, and stamps every row — mapped or not — so
// an older program still in flight cannot map the page again.
func (f *FTL) unmapRange(lpn, count int64, seq uint64) {
	for i := int64(0); i < count; i++ {
		e := f.l2p.row(lpn + i)
		if e.ppn >= 0 {
			f.setLPNAt(e.ppn, -1)
			e.ppn = -1
			f.l2p.mapped--
			f.stats.Trims++
		}
		e.seq = seq
	}
}

// alloc returns the next physical page slot following the configured
// allocation policy.
func (f *FTL) alloc() (int64, error) {
	u, err := f.pickUnit()
	if err != nil {
		return 0, err
	}
	if f.active[u] == -1 {
		blk := f.popFree(u)
		if blk == -1 {
			return 0, ErrFull
		}
		f.active[u] = blk
		f.blocks[blk].active = true
	}
	blk := f.active[u]
	st := &f.blocks[blk]
	ppn := blk*f.ppb + int64(st.nextPage)
	st.nextPage++
	if int64(st.nextPage) == f.ppb {
		st.active = false
		f.active[u] = -1 // sealed
	}
	return ppn, nil
}

// pickUnit chooses the write allocation unit: round-robin across all
// channel x die units when striping, else the first usable unit (the
// ablation baseline, which serialises on one die at a time).
func (f *FTL) pickUnit() (int, error) {
	n := f.units
	usable := func(u int) bool { return f.active[u] != -1 || len(f.free[u]) > 0 }
	if !f.cfg.Striping {
		for u := 0; u < n; u++ {
			if usable(u) {
				return u, nil
			}
		}
		return 0, ErrFull
	}
	for i := 0; i < n; i++ {
		u := (f.nextUnit + i) % n
		if usable(u) {
			f.nextUnit = (u + 1) % n
			return u, nil
		}
	}
	return 0, ErrFull
}

func (f *FTL) popFree(u int) int64 {
	fl := f.free[u]
	if len(fl) == 0 {
		return -1
	}
	blk := fl[len(fl)-1]
	f.free[u] = fl[:len(fl)-1]
	f.freeBlocks--
	return blk
}

// maybeGC runs foreground garbage collection until the free pool is
// healthy. Called before every host write and TRIM record. One collector
// runs at a time: a writer that finds one running waits for it to finish,
// then holds the pool to the watermark like any other writer.
func (f *FTL) maybeGC(p *sim.Proc) error {
	// Bound the number of collections per trigger so a pathological
	// zero-net-gain workload degrades to high write amplification instead
	// of an unbounded loop.
	limit := int(f.geo.Blocks())
	for i := 0; ; i++ {
		for f.inGC {
			f.gcDone.Wait(p)
		}
		// The watermark: a free block for every allocation unit to open, plus
		// two for a victim's relocation. No writer passes it while a
		// collection runs or while the pool is below it.
		if f.freeBlocks >= f.units+2 || i == limit {
			return nil
		}
		if err := f.gcOnce(p); err != nil {
			if errors.Is(err, errNoVictim) {
				return nil // nothing collectable; let alloc fail if truly full
			}
			return err
		}
	}
}

var errNoVictim = errors.New("ftl: no GC victim")

// gcOnce picks the sealed block with the fewest valid pages (ties broken by
// lowest wear, then index, for deterministic, wear-levelling behaviour),
// relocates its live pages, and erases it back into the free pool.
// Relocation copies each journal record verbatim — payload and OOB,
// original sequence number included — so a relocated stale copy can never
// outrank the newest acknowledged write during recovery. TRIM records not
// yet covered by a checkpoint are live records like any other.
func (f *FTL) gcOnce(p *sim.Proc) error {
	victim := int64(-1)
	bestValid := int32(f.ppb) + 1
	var bestWear int64
	for blk := range f.blocks {
		st := &f.blocks[blk]
		if st.active || st.bad || st.inflight > 0 || int64(st.nextPage) < f.ppb {
			continue // active, retired, holding an in-flight program, or not yet sealed (free included)
		}
		if st.valid > bestValid {
			continue
		}
		// Wear breaks ties only, so it is looked up only for contenders.
		wear := f.dev.EraseCount(f.geo.AddrOfBlock(int64(blk)))
		if st.valid < bestValid || wear < bestWear {
			victim, bestValid, bestWear = int64(blk), st.valid, wear
		}
	}
	if victim == -1 {
		return errNoVictim
	}
	if int64(bestValid) == f.ppb {
		// Relocating a fully-valid block costs a block and frees a block:
		// no net gain, so GC cannot make progress.
		return errNoVictim
	}
	f.inGC = true
	defer func() {
		f.inGC = false
		f.gcDone.Broadcast()
	}()
	defer f.obs.Time(p, "ftl", "gc", f.histGC).End()
	if err := f.relocateBlock(p, victim); err != nil {
		return err
	}
	if err := f.dev.EraseBlock(p, f.geo.AddrOfBlock(victim)); err != nil {
		if errors.Is(err, flash.ErrPowerLoss) {
			return fmt.Errorf("ftl: gc erase: %w", err)
		}
		// Erase fault: the block has grown bad. Its live pages are already
		// relocated, so retire it in place — read-only, never reused.
		f.blocks[victim].bad = true
		f.blocks[victim].nextPage = int32(f.ppb)
		f.stats.RetiredBlocks++
		return nil
	}
	// Every live page was relocated above, so the kept p2l holds only -1.
	f.blocks[victim] = blockState{p2l: f.blocks[victim].p2l}
	u := f.unitOf(victim)
	f.free[u] = append(f.free[u], victim)
	f.freeBlocks++
	f.stats.GCRuns++
	return nil
}

// relocateBlock copies every live record (mapped data pages and un-
// checkpointed TRIM records) off blk, preserving each record's OOB
// verbatim. A record superseded while it is read or programmed — a newer
// write or TRIM, or a checkpoint covering a TRIM record — leaves its copy
// behind as unmapped garbage.
func (f *FTL) relocateBlock(p *sim.Proc, blk int64) error {
	data := f.getPage()
	defer f.putPage(data)
	base := blk * f.ppb
	for ppn := base; ppn < base+f.ppb; ppn++ {
		lpn := f.lpnAt(ppn)
		if lpn == -1 {
			continue
		}
		oob, err := f.readForRelocate(p, ppn, data)
		if err != nil {
			return fmt.Errorf("ftl: gc read: %w", err)
		}
		if f.lpnAt(ppn) != lpn {
			continue // superseded mid-read
		}
		newPPN, err := f.appendRecord(p, data, oob, false)
		if err != nil {
			return fmt.Errorf("ftl: gc program: %w", err)
		}
		if f.lpnAt(ppn) != lpn {
			continue // superseded during the program
		}
		f.moveMapping(lpn, ppn, newPPN)
		f.stats.GCWrites++
	}
	return nil
}

// readForRelocate reads a page raw into dst — payload plus OOB, no CRC
// verification, since relocation must move even a corrupt page verbatim so
// the corruption stays detectable — absorbing transient read faults with
// bounded retries.
func (f *FTL) readForRelocate(p *sim.Proc, ppn int64, dst []byte) (flash.OOB, error) {
	var lastErr error
	for try := 0; try < 3; try++ {
		oob, err := f.dev.ReadPageInto(p, f.geo.AddrOfPage(ppn), dst)
		if err == nil {
			return oob, nil
		}
		lastErr = err
		if errors.Is(err, flash.ErrPowerLoss) {
			break
		}
	}
	return flash.OOB{}, lastErr
}

// retireBlock takes a grown-bad block out of service: it is sealed, marked
// bad (read-only — never erased, never a GC victim), and its live records
// are relocated to healthy blocks. Host writes proceed on fresh blocks
// instead of failing.
func (f *FTL) retireBlock(p *sim.Proc, blk int64) error {
	st := &f.blocks[blk]
	if st.bad {
		return nil
	}
	st.bad = true
	f.stats.RetiredBlocks++
	u := f.unitOf(blk)
	if f.active[u] == blk {
		f.active[u] = -1
	}
	st.active = false
	st.nextPage = int32(f.ppb)
	for i, b := range f.free[u] {
		if b == blk {
			f.free[u] = append(f.free[u][:i], f.free[u][i+1:]...)
			f.freeBlocks--
			break
		}
	}
	return f.relocateBlock(p, blk)
}
