// Package ssd assembles complete solid-state drives from the substrate
// models: NAND array + FTL + controller CPU + NVMe front-end, optionally
// carrying the CompStor in-storage processing subsystem with its dedicated
// flash path.
//
// Two ablation configurations reproduce the paper's Table I comparisons:
// SharedCores runs in-situ tasks on the controller's embedded cores
// (Biscuit-style), and ISPSViaNVMePath removes the dedicated high-bandwidth
// flash path, forcing in-situ I/O through the protocol front-end.
package ssd

import (
	"fmt"
	"time"

	"compstor/internal/apps"
	"compstor/internal/cpu"
	"compstor/internal/energy"
	"compstor/internal/flash"
	"compstor/internal/ftl"
	"compstor/internal/isps"
	"compstor/internal/minfs"
	"compstor/internal/nvme"
	"compstor/internal/obs"
	"compstor/internal/pcie"
	"compstor/internal/sim"
)

// Controller constants. Every drive in the paper's testbed is the same
// enterprise part, so none of these is a setting: a different drive is a
// different model, not a knob.
const (
	// ctrlCmdOverhead is embedded-CPU time per NVMe command.
	ctrlCmdOverhead = 8 * time.Microsecond
	// ctrlCores is the number of embedded controller cores.
	ctrlCores = 2
	// ispsDriverLatency is the flash-access device driver overhead per
	// range operation on the dedicated path.
	ispsDriverLatency = 3 * time.Microsecond
)

// Config assembles a drive. Flash timing and the NVMe front-end are the
// defaults of their packages (flash.DefaultTiming, nvme.DefaultConfig).
type Config struct {
	Name     string
	Geometry flash.Geometry
	FTL      ftl.Config

	// InSitu attaches an ISPS (making this a CompStor). Registry is the
	// program set to install (cloned); required when InSitu.
	InSitu   bool
	Registry *apps.Registry

	// SerialReads is the serial-read ablation: no streaming read pipeline
	// (ISPS-DRAM page cache + read-ahead prefetcher, readcache.go), so every
	// in-situ read stalls its core — the paper's synchronous read loop. The
	// pipeline only exists on in-situ drives with the dedicated flash path.
	SerialReads bool

	// ScanChunks is forwarded to the ISPS (isps.Config.ScanChunks): 0 splits
	// a large scan one chunk per core, 1 is the paper's one-core-per-task
	// executor.
	ScanChunks int

	// SharedCores is the Biscuit-style ablation: in-situ tasks execute on
	// the controller's embedded cores instead of a dedicated subsystem.
	SharedCores bool
	// ISPSViaNVMePath is the no-dedicated-path ablation: in-situ flash
	// access pays protocol-front-end costs per operation and loses fan-out.
	ISPSViaNVMePath bool

	// Meter, when set, registers the device's ISPS energy component.
	Meter *energy.Meter

	// Obs, when set, instruments every layer of the drive (flash, FTL,
	// NVMe, ISPS). Pass a per-drive scope (e.g. root.Scope(name)) so metric
	// names from different drives do not collide.
	Obs *obs.Obs
}

// DefaultConfig returns a conventional enterprise drive using the default
// laptop-scale geometry.
func DefaultConfig(name string) Config {
	return Config{
		Name:     name,
		Geometry: flash.DefaultGeometry(),
		FTL:      ftl.DefaultConfig(),
	}
}

// CompStorConfig returns a CompStor drive with the given program set.
func CompStorConfig(name string, registry *apps.Registry) Config {
	cfg := DefaultConfig(name)
	cfg.InSitu = true
	cfg.Registry = registry
	return cfg
}

// SSD is an assembled drive attached to a PCIe port.
type SSD struct {
	eng  *sim.Engine
	cfg  Config
	port *pcie.Port

	dev  *flash.Device
	ftl  *ftl.FTL
	ctrl *nvme.Controller

	ctrlCPU *sim.Resource

	sub *isps.Subsystem

	fs       *minfs.FS
	ispsView *minfs.View
	cache    pageCache     // streaming read pipeline; nil without one
	raBusy   *obs.Timeline // prefetch-window occupancy (nil without obs)

	readStall time.Duration // ISPS-path reads: how long they kept their callers waiting

	// ioNames are the forEachPage worker proc names, built once so the
	// fan-out on every multi-page write spawns without formatting; reads fan
	// out without processes (readBatch).
	ioNames []string
	batches []*readBatch // idle, ready for reuse

	vendor    func(p *sim.Proc, op nvme.Opcode, payload any) (any, int64, error)
	faultHook func(p *sim.Proc, op nvme.Opcode) error
}

// New builds and attaches a drive.
func New(eng *sim.Engine, port *pcie.Port, cfg Config) *SSD {
	// Carrying Obs inside the FTL config means Remount's Recover-built
	// replacement FTL is instrumented too.
	cfg.FTL.Obs = cfg.Obs
	s := &SSD{
		eng:     eng,
		cfg:     cfg,
		port:    port,
		dev:     flash.NewDevice(eng, cfg.Name+"/nand", cfg.Geometry, flash.DefaultTiming()),
		ctrlCPU: sim.NewResource(eng, ctrlCores),
	}
	maxIO := cfg.Geometry.Channels * cfg.Geometry.DiesPerChan * 2
	if maxIO > 128 {
		maxIO = 128
	}
	s.ioNames = make([]string, maxIO)
	for i := range s.ioNames {
		s.ioNames[i] = fmt.Sprintf("%s/io%d", cfg.Name, i)
	}
	s.dev.SetObs(cfg.Obs)
	s.ftl = ftl.New(s.dev, cfg.FTL)
	s.fs = minfs.NewFS(cfg.Geometry.PageSize, s.ftl.LogicalPages())
	if cfg.Obs != nil {
		cfg.Obs.WatchResource("ctrl.busy", time.Millisecond, s.ctrlCPU)
	}

	if cfg.InSitu {
		if cfg.Registry == nil {
			panic("ssd: in-situ drive requires a program registry")
		}
		platform := cpu.ISPS()
		var meterComp *energy.Component
		if cfg.Meter != nil {
			meterComp = cfg.Meter.Component(cfg.Name+"/isps", platform.BaseWatts)
		}
		icfg := isps.Config{
			Platform:   platform,
			Registry:   cfg.Registry.Clone(),
			Meter:      meterComp,
			ScanChunks: cfg.ScanChunks,
		}
		if cfg.SharedCores {
			icfg.Cores = s.ctrlCPU
			icfg.TimeSlice = time.Millisecond // preemptive firmware scheduler
		}
		s.sub = isps.New(eng, icfg)
		s.sub.SetObs(cfg.Obs)
		if !cfg.SerialReads && !cfg.ISPSViaNVMePath {
			s.sub.ReserveDRAM(cachePages * int64(cfg.Geometry.PageSize))
			c := newReadCache(s)
			s.cache = c
			if cfg.Obs != nil {
				cfg.Obs.CounterFunc("isps.cache.hits", func() int64 { return c.stats.Hits })
				cfg.Obs.CounterFunc("isps.cache.misses", func() int64 { return c.stats.Misses })
				cfg.Obs.CounterFunc("isps.cache.evictions", func() int64 { return c.stats.Evictions })
				cfg.Obs.CounterFunc("isps.cache.invalidations", func() int64 { return c.stats.Invalidations })
				cfg.Obs.CounterFunc("isps.cache.prefetch_runs", func() int64 { return c.stats.PrefetchRuns })
				cfg.Obs.CounterFunc("isps.cache.prefetch_pages", func() int64 { return c.stats.PrefetchPages })
				cfg.Obs.CounterFunc("isps.cache.stale_fills", func() int64 { return c.stats.StaleFills })
				cfg.Obs.CounterFunc("isps.cache.pages", func() int64 { return int64(len(c.index)) })
				s.raBusy = cfg.Obs.Timeline("isps.prefetch.busy", time.Millisecond, fillWindow)
			}
		}
		s.ispsView = minfs.NewView(s.fs, s.ispsBlockDevice())
		// The in-SSD Linux has a page cache of its own.
		s.ispsView.EnableWriteBack(eng, 16384, 32)
		s.sub.AttachFS(s.ispsView)
	}

	s.ctrl = nvme.NewController(eng, port, s, nvme.DefaultConfig())
	s.ctrl.SetObs(cfg.Obs)
	return s
}

// Remount recovers the drive after a power cut: it restores power to the
// NAND array and rebuilds the FTL from media (checkpoint load + OOB journal
// scan), so the drive serves exactly the writes it acknowledged before the
// cut. The replacement FTL is swapped in for every path — host NVMe and the
// ISPS flash-access driver alike. Returns the recovery report.
func (s *SSD) Remount(p *sim.Proc) (ftl.RecoveryStats, error) {
	if s.cfg.Obs != nil {
		sp := s.cfg.Obs.Begin(p, "ssd", "remount")
		defer sp.End()
	}
	s.dev.PowerOn()
	f, rs, err := ftl.Recover(p, s.dev, s.cfg.FTL)
	if err != nil {
		return rs, fmt.Errorf("ssd: remount %s: %w", s.cfg.Name, err)
	}
	s.ftl = f
	// ISPS DRAM does not survive the cut: drop the read cache wholesale so
	// every post-recovery read reflects the recovered FTL state, never a
	// pre-cut cached page (recovery may legitimately roll back unacked
	// writes a fill had observed).
	if s.cache != nil {
		s.cache.dropAll()
	}
	return rs, nil
}

// ReadCacheStats returns the read pipeline's counters; ok is false when the
// pipeline is disabled on this drive.
func (s *SSD) ReadCacheStats() (st ReadCacheStats, ok bool) {
	if s.cache == nil {
		return ReadCacheStats{}, false
	}
	return s.cache.Stats(), true
}

// ReadStall returns how long ISPS-path reads have kept their callers
// waiting: with the ISPS's core-busy time, the split cpu.StreamCPUFraction
// is measured from.
func (s *SSD) ReadStall() time.Duration { return s.readStall }

// invalidateCache drops cached copies of a logical range after its content
// changed; a no-op when the pipeline is off.
func (s *SSD) invalidateCache(lpn, count int64) {
	if s.cache != nil {
		s.cache.invalidate(lpn, count)
	}
}

// Obs returns the drive's observability scope (nil when not instrumented).
func (s *SSD) Obs() *obs.Obs { return s.cfg.Obs }

// Controller returns the NVMe controller.
func (s *SSD) Controller() *nvme.Controller { return s.ctrl }

// Driver returns a host-side NVMe driver handle.
func (s *SSD) Driver() *nvme.Driver { return s.ctrl.Driver() }

// FTL exposes the translation layer (stats, capacity).
func (s *SSD) FTL() *ftl.FTL { return s.ftl }

// Flash exposes the NAND device (stats, wear).
func (s *SSD) Flash() *flash.Device { return s.dev }

// ISPS returns the in-storage subsystem, or nil on conventional drives.
func (s *SSD) ISPS() *isps.Subsystem { return s.sub }

// FS returns the drive's filesystem metadata object.
func (s *SSD) FS() *minfs.FS { return s.fs }

// HostView returns a filesystem view routed through the NVMe host path,
// with write-back caching enabled (the host's page cache). Callers must
// Flush before handing files to another view; Client.SendMinion does this
// automatically.
func (s *SSD) HostView() *minfs.View {
	v := minfs.NewView(s.fs, &hostBlockDevice{drv: s.Driver(), fs: s.fs, pages: s.ftl.LogicalPages()})
	v.EnableWriteBack(s.eng, 16384, 32)
	return v
}

// ISPSView returns the in-storage filesystem view (nil on conventional
// drives).
func (s *SSD) ISPSView() *minfs.View { return s.ispsView }

// SetVendorHandler installs the device-side handler for vendor NVMe
// commands (the CompStor agent transport).
func (s *SSD) SetVendorHandler(fn func(p *sim.Proc, op nvme.Opcode, payload any) (any, int64, error)) {
	s.vendor = fn
}

// SetFaultHook installs a drive-level fault injector: it runs at the start
// of every backend command (Read/Write/Trim/Flush/Vendor), after the
// controller-CPU overhead is charged. Returning an error fails the command;
// the hook may call p.Wait to model a degraded (slow) drive. Pass nil to
// clear.
func (s *SSD) SetFaultHook(fn func(p *sim.Proc, op nvme.Opcode) error) { s.faultHook = fn }

// CmdOverhead returns the embedded-CPU time charged per NVMe command — the
// nominal unit fault injectors scale when they model a slow drive.
func (s *SSD) CmdOverhead() time.Duration { return ctrlCmdOverhead }

func (s *SSD) fault(p *sim.Proc, op nvme.Opcode) error {
	if s.faultHook == nil {
		return nil
	}
	return s.faultHook(p, op)
}

// nvme.Backend implementation -------------------------------------------------

// Model implements nvme.Backend.
func (s *SSD) Model() string { return s.cfg.Name }

// PageSize implements nvme.Backend.
func (s *SSD) PageSize() int { return s.cfg.Geometry.PageSize }

// CapacityBytes implements nvme.Backend.
func (s *SSD) CapacityBytes() int64 { return s.ftl.LogicalBytes() }

// InSitu implements nvme.Backend.
func (s *SSD) InSitu() bool { return s.cfg.InSitu }

// Read implements nvme.Backend: controller overhead, then channel-parallel
// page fetches straight into the host's buffer.
func (s *SSD) Read(p *sim.Proc, lba, pages int64, dst []byte) error {
	s.useCtrl(p)
	if err := s.fault(p, nvme.OpRead); err != nil {
		return err
	}
	return s.readPagesInto(p, lba, pages, dst)
}

// readPagesInto fills dst (count pages) from logical page lpn on: each page
// is copied once, by the flash model, into its place in dst.
func (s *SSD) readPagesInto(p *sim.Proc, lpn, count int64, dst []byte) error {
	if count == 1 { // ftl_churn's whole read path: not even a batch is fetched
		return s.ftl.ReadPageInto(p, lpn, dst)
	}
	ps := int64(s.PageSize())
	b := s.newBatch()
	defer b.release()
	for i := int64(0); i < count; i++ {
		b.pages = append(b.pages, pageRead{lpn + i, dst[i*ps : (i+1)*ps]})
	}
	return b.run(p)
}

// Write implements nvme.Backend.
func (s *SSD) Write(p *sim.Proc, lba int64, data []byte) error {
	s.useCtrl(p)
	if err := s.fault(p, nvme.OpWrite); err != nil {
		return err
	}
	ps := int64(s.PageSize())
	pages := int64(len(data)) / ps
	// Invalidate after the FTL writes complete (even on error — some pages
	// may have landed): see readCache.invalidate for the ordering argument.
	defer s.invalidateCache(lba, pages)
	return s.forEachPage(p, pages, func(cp *sim.Proc, i int64) error {
		return s.ftl.WritePage(cp, lba+i, data[i*ps:(i+1)*ps])
	})
}

// Trim implements nvme.Backend.
func (s *SSD) Trim(p *sim.Proc, lba, pages int64) error {
	s.useCtrl(p)
	if err := s.fault(p, nvme.OpTrim); err != nil {
		return err
	}
	defer s.invalidateCache(lba, pages)
	return s.ftl.Trim(p, lba, pages)
}

// Flush implements nvme.Backend as a durability barrier. The FTL programs
// every write (payload + OOB journal record) before acknowledging it, so
// there is no volatile cache to drain: the barrier only waits out an L2P
// checkpoint in progress. Replay bounding happens on the FTL's periodic
// checkpoint schedule, not per FLUSH.
func (s *SSD) Flush(p *sim.Proc) error {
	s.useCtrl(p)
	if err := s.fault(p, nvme.OpFlush); err != nil {
		return err
	}
	return s.ftl.Flush(p)
}

// Vendor implements nvme.Backend, delegating to the installed agent.
func (s *SSD) Vendor(p *sim.Proc, op nvme.Opcode, payload any) (any, int64, error) {
	if s.vendor == nil {
		return nil, 0, fmt.Errorf("ssd: %s has no vendor handler (not a CompStor?)", s.cfg.Name)
	}
	if err := s.fault(p, op); err != nil {
		return nil, 0, err
	}
	return s.vendor(p, op, payload)
}

// useCtrl charges embedded-CPU time for one command.
func (s *SSD) useCtrl(p *sim.Proc) {
	s.ctrlCPU.Use(p, ctrlCmdOverhead)
}

// forEachPage fans page writes out across worker processes so channel and
// die parallelism is exploited; it returns the first error. ftl.WritePage
// blocks where an event cannot (checkpoint drain, GC, block retirement), so
// writes keep a process per lane; reads do without (readBatch).
func (s *SSD) forEachPage(p *sim.Proc, n int64, fn func(cp *sim.Proc, i int64) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return fn(p, 0)
	}
	// Full die-level parallelism (capped), so the fan-out can keep every
	// plane busy on write-heavy streams.
	workers := int64(len(s.ioNames))
	if workers > n {
		workers = n
	}
	var wg sim.WaitGroup
	var firstErr error
	wg.Add(int(workers))
	obsCtx := p.ObsCtx() // workers inherit the issuing command's span
	for w := int64(0); w < workers; w++ {
		w := w
		s.eng.Go(s.ioNames[w], func(cp *sim.Proc) {
			defer wg.Done()
			cp.SetObsCtx(obsCtx)
			for i := w; i < n; i += workers {
				if firstErr != nil {
					return
				}
				if err := fn(cp, i); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			}
		})
	}
	wg.Wait(p)
	return firstErr
}

// readBatch is one multi-page read: forEachPage's fan-out run in engine
// context (DESIGN.md §21). The issuing process schedules one start event
// where the worker spawns sat and parks; that event sets every lane going,
// and each landing page starts its lane's next. Lane w reads pages w,
// w+lanes, … at the instants and dispatch positions worker w did. Batches are
// recycled: newBatch, fill pages, run, release; until release the
// destination slices are the batch's to write.
type readBatch struct {
	s      *SSD
	pages  []pageRead
	lanes  []*readLane // the first nLanes are running
	nLanes int
	wg     sim.WaitGroup
	err    error   // the first error: stops every lane at its next page
	parent obs.Ctx // the issuing command's span, which every page's span joins
	start  func()  // the start event, built once
}

// pageRead is one page of a batch: logical page lpn lands in dst.
type pageRead struct {
	lpn int64
	dst []byte
}

// readLane is one lane of a batch and the page operation it reuses.
type readLane struct {
	b    *readBatch
	op   ftl.ReadOp
	next int // index in b.pages of the lane's next page
}

func (s *SSD) newBatch() *readBatch {
	if n := len(s.batches); n > 0 {
		b := s.batches[n-1]
		s.batches = s.batches[:n-1]
		return b
	}
	b := &readBatch{s: s}
	b.start = func() {
		for w, l := range b.lanes[:b.nLanes] {
			l.next = w
			l.step(nil)
		}
	}
	return b
}

// release empties the batch and hands it back to newBatch.
func (b *readBatch) release() {
	clear(b.pages)
	b.pages, b.err = b.pages[:0], nil
	b.s.batches = append(b.s.batches, b)
}

// run reads the batch's pages and returns the first error. A single page is
// read by p itself: a blocking read can complete without a switch, no event can.
func (b *readBatch) run(p *sim.Proc) error {
	s, n := b.s, len(b.pages)
	if n == 1 {
		return s.ftl.ReadPageInto(p, b.pages[0].lpn, b.pages[0].dst)
	}
	if n == 0 {
		return nil
	}
	b.nLanes = min(len(s.ioNames), n)
	for len(b.lanes) < b.nLanes {
		l := &readLane{b: b}
		l.op.Init(l.step)
		b.lanes = append(b.lanes, l)
	}
	b.parent = obs.CtxOf(p)
	b.wg.Add(b.nLanes)
	s.eng.At(s.eng.Now(), b.start)
	b.wg.Wait(p)
	return b.err
}

// step takes the outcome of the lane's page that just landed (nil to begin)
// and starts pages until one is in flight — its landing comes back here — or
// the lane is over: out of pages, or any lane failed. Pages over as they start
// (unmapped, rejected) are passed by iteration: a long hole grows no stack.
func (l *readLane) step(err error) {
	b := l.b
	for {
		if err != nil && b.err == nil {
			b.err = err
		}
		if b.err != nil || l.next >= len(b.pages) {
			b.wg.Done()
			return
		}
		pg := b.pages[l.next]
		l.next += b.nLanes
		var finished bool
		if finished, err = b.s.ftl.StartRead(&l.op, pg.lpn, pg.dst, b.parent); !finished {
			return
		}
	}
}

// Block device adapters ---------------------------------------------------------

// hostBlockDevice routes filesystem I/O through the NVMe driver (paying
// PCIe DMA and protocol costs).
type hostBlockDevice struct {
	drv   *nvme.Driver
	fs    *minfs.FS
	pages int64
}

func (d *hostBlockDevice) PageSize() int { return d.fs.PageSize() }
func (d *hostBlockDevice) Pages() int64  { return d.pages }

func (d *hostBlockDevice) ReadPages(p *sim.Proc, lpn, count int64) ([]byte, error) {
	return d.drv.Read(p, lpn, count)
}

// ReadPagesInto implements minfs.PageReaderInto: one NVMe READ whose DMA
// target is dst.
func (d *hostBlockDevice) ReadPagesInto(p *sim.Proc, lpn int64, dst []byte) error {
	return d.drv.ReadInto(p, lpn, dst)
}

func (d *hostBlockDevice) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	return d.drv.Write(p, lpn, data)
}

func (d *hostBlockDevice) TrimPages(p *sim.Proc, lpn, count int64) error {
	return d.drv.Trim(p, lpn, count)
}

// Sync implements minfs.Syncer: an NVMe FLUSH, the host's fsync tail.
func (d *hostBlockDevice) Sync(p *sim.Proc) error {
	return d.drv.Flush(p)
}

// ispsBlockDevice is the flash-access device driver: the dedicated
// high-bandwidth, low-latency path from the ISPS to the media.
type ispsBlockDevice struct {
	s      *SSD
	direct bool
}

func (s *SSD) ispsBlockDevice() minfs.BlockDevice {
	return &ispsBlockDevice{s: s, direct: !s.cfg.ISPSViaNVMePath}
}

func (d *ispsBlockDevice) PageSize() int { return d.s.PageSize() }
func (d *ispsBlockDevice) Pages() int64  { return d.s.ftl.LogicalPages() }

func (d *ispsBlockDevice) ReadPages(p *sim.Proc, lpn, count int64) ([]byte, error) {
	out := make([]byte, count*int64(d.s.PageSize()))
	if err := d.ReadPagesInto(p, lpn, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadPagesInto implements minfs.PageReaderInto.
func (d *ispsBlockDevice) ReadPagesInto(p *sim.Proc, lpn int64, dst []byte) error {
	start := p.Now()
	defer func() { d.s.readStall += p.Now().Sub(start) }()
	ps := int64(d.s.PageSize())
	count := int64(len(dst)) / ps
	if d.s.cache != nil { // only ever on the direct path
		return d.s.cache.readPages(p, lpn, count, dst)
	}
	if d.direct {
		p.Wait(ispsDriverLatency)
		return d.s.readPagesInto(p, lpn, count, dst)
	}
	// Ablation: every page loops through the protocol front-end, serially,
	// paying command overhead on the shared controller cores.
	for i := int64(0); i < count; i++ {
		p.Wait(25 * time.Microsecond)
		d.s.useCtrl(p)
		if err := d.s.ftl.ReadPageInto(p, lpn+i, dst[i*ps:(i+1)*ps]); err != nil {
			return err
		}
	}
	return nil
}

func (d *ispsBlockDevice) WritePages(p *sim.Proc, lpn int64, data []byte) error {
	ps := int64(d.s.PageSize())
	count := int64(len(data)) / ps
	defer d.s.invalidateCache(lpn, count)
	if d.direct {
		p.Wait(ispsDriverLatency)
		return d.s.forEachPage(p, count, func(cp *sim.Proc, i int64) error {
			return d.s.ftl.WritePage(cp, lpn+i, data[i*ps:(i+1)*ps])
		})
	}
	for i := int64(0); i < count; i++ {
		p.Wait(25 * time.Microsecond)
		d.s.useCtrl(p)
		if err := d.s.ftl.WritePage(p, lpn+i, data[i*ps:(i+1)*ps]); err != nil {
			return err
		}
	}
	return nil
}

func (d *ispsBlockDevice) TrimPages(p *sim.Proc, lpn, count int64) error {
	p.Wait(ispsDriverLatency)
	defer d.s.invalidateCache(lpn, count)
	return d.s.ftl.Trim(p, lpn, count)
}

// ReadAheadPages implements minfs.Prefetcher: the advised read-ahead
// distance, 0 without the pipeline (no file read-ahead, serial charging).
func (d *ispsBlockDevice) ReadAheadPages() int64 {
	if d.s.cache == nil {
		return 0
	}
	return readAheadPages * fillWindow // the whole fill window's worth
}

// Prefetch implements minfs.Prefetcher, delegating to the read cache's
// background fill machinery.
func (d *ispsBlockDevice) Prefetch(p *sim.Proc, lpn, count int64) int64 {
	if d.s.cache == nil {
		return 0
	}
	return d.s.cache.prefetch(p, lpn, count)
}

// Sync implements minfs.Syncer over the dedicated path: the driver call
// goes straight to the FTL's flush barrier (writes are acknowledged only
// once programmed, so there is no cache to drain).
func (d *ispsBlockDevice) Sync(p *sim.Proc) error {
	p.Wait(ispsDriverLatency)
	return d.s.ftl.Flush(p)
}
