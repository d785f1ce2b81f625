package flash

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"time"

	"compstor/internal/sim"
)

// refDevice is the page store this package shipped before the slab-backed
// one: four maps keyed by linear page or block, a fresh copy on every read
// and every program. It is kept here, timing and power model included, as
// the oracle the differential test drives beside Device.
type refDevice struct {
	eng    *sim.Engine
	geo    Geometry
	timing Timing

	chanBus []*sim.Link
	dies    []*sim.Resource

	pages      map[int64][]byte
	oob        map[int64]OOB
	written    map[int64]bool
	eraseCount map[int64]int64

	powered   bool
	lastOff   sim.Time
	stats     Stats
	faultHook func(op FaultOp, a Addr) error
}

func newRefDevice(eng *sim.Engine, geo Geometry, timing Timing) *refDevice {
	d := &refDevice{
		eng: eng, geo: geo, timing: timing,
		pages:      make(map[int64][]byte),
		oob:        make(map[int64]OOB),
		written:    make(map[int64]bool),
		eraseCount: make(map[int64]int64),
		powered:    true,
		lastOff:    -1,
	}
	for c := 0; c < geo.Channels; c++ {
		d.chanBus = append(d.chanBus, sim.NewLink(eng, fmt.Sprintf("ref/ch%d", c), timing.ChannelBytesPerSec, 0))
	}
	for i := 0; i < geo.Channels*geo.DiesPerChan; i++ {
		d.dies = append(d.dies, sim.NewResource(eng, 1))
	}
	return d
}

func (d *refDevice) check(a Addr) error {
	if a.Channel < 0 || a.Channel >= d.geo.Channels ||
		a.Die < 0 || a.Die >= d.geo.DiesPerChan ||
		a.Plane < 0 || a.Plane >= d.geo.PlanesPerDie ||
		a.Block < 0 || a.Block >= d.geo.BlocksPerPlan ||
		a.Page < 0 || a.Page >= d.geo.PagesPerBlock {
		return fmt.Errorf("%w: %v", ErrOutOfRange, a)
	}
	return nil
}

func (d *refDevice) fault(op FaultOp, a Addr) error {
	if d.faultHook == nil {
		return nil
	}
	return d.faultHook(op, a)
}

func (d *refDevice) die(a Addr) *sim.Resource { return d.dies[a.Channel*d.geo.DiesPerChan+a.Die] }

func (d *refDevice) PowerOff() {
	if d.powered {
		d.powered = false
		d.lastOff = d.eng.Now()
	}
}

func (d *refDevice) PowerOn() { d.powered = true }

func (d *refDevice) cutDuring(start sim.Time) bool {
	return !d.powered || (d.lastOff >= 0 && d.lastOff >= start)
}

// busy holds the die for dur, then books xfer bytes on the bus (0 = none).
func (d *refDevice) busy(p *sim.Proc, a Addr, dur time.Duration, xfer int64) {
	die := d.die(a)
	die.Acquire(p)
	p.WaitFn(dur, func() sim.Time {
		die.AddBusy(dur)
		die.Release()
		if xfer == 0 {
			return d.eng.Now()
		}
		return d.chanBus[a.Channel].TransferTime(xfer)
	})
}

func (d *refDevice) ReadPageOOB(p *sim.Proc, a Addr) ([]byte, OOB, error) {
	if err := d.check(a); err != nil {
		return nil, OOB{}, err
	}
	if !d.powered {
		return nil, OOB{}, fmt.Errorf("%w: read %v", ErrPowerLoss, a)
	}
	start := p.Now()
	idx := d.geo.PageIndex(a)
	d.busy(p, a, d.timing.ReadPage, int64(d.geo.PageSize))
	if d.cutDuring(start) {
		return nil, OOB{}, fmt.Errorf("%w: read %v", ErrPowerLoss, a)
	}
	d.stats.Reads++
	if err := d.fault(FaultRead, a); err != nil {
		return nil, OOB{}, err
	}
	data, ok := d.pages[idx]
	if !ok {
		return nil, OOB{}, fmt.Errorf("%w: %v", ErrUnwritten, a)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, d.oob[idx], nil
}

func (d *refDevice) ReadOOB(p *sim.Proc, a Addr) (oob OOB, ok bool, err error) {
	if err := d.check(a); err != nil {
		return OOB{}, false, err
	}
	if !d.powered {
		return OOB{}, false, fmt.Errorf("%w: oob read %v", ErrPowerLoss, a)
	}
	start := p.Now()
	d.busy(p, a, d.timing.ReadPage, OOBBytes)
	if d.cutDuring(start) {
		return OOB{}, false, fmt.Errorf("%w: oob read %v", ErrPowerLoss, a)
	}
	d.stats.OOBReads++
	if err := d.fault(FaultRead, a); err != nil {
		return OOB{}, false, err
	}
	oob, ok = d.oob[d.geo.PageIndex(a)]
	return oob, ok, nil
}

func (d *refDevice) ProgramPageOOB(p *sim.Proc, a Addr, data []byte, oob OOB) error {
	if err := d.check(a); err != nil {
		return err
	}
	if len(data) != d.geo.PageSize {
		return fmt.Errorf("%w: got %d bytes, page is %d", ErrPageSize, len(data), d.geo.PageSize)
	}
	if !d.powered {
		return fmt.Errorf("%w: program %v", ErrPowerLoss, a)
	}
	idx := d.geo.PageIndex(a)
	if d.written[idx] {
		return fmt.Errorf("%w: %v", ErrNotErased, a)
	}
	start := p.Now()
	d.chanBus[a.Channel].Transfer(p, int64(d.geo.PageSize))
	d.busy(p, a, d.timing.ProgramPage, 0)
	if d.cutDuring(start) {
		torn := make([]byte, len(data))
		copy(torn, data)
		for i := len(torn) / 2; i < len(torn); i++ {
			torn[i] ^= 0xFF
		}
		d.pages[idx] = torn
		d.oob[idx] = oob
		d.written[idx] = true
		d.stats.Programs++
		return fmt.Errorf("%w: torn program %v", ErrPowerLoss, a)
	}
	if err := d.fault(FaultProgram, a); err != nil {
		d.written[idx] = true
		d.stats.Programs++
		return err
	}
	stored := make([]byte, len(data))
	copy(stored, data)
	d.pages[idx] = stored
	d.oob[idx] = oob
	d.written[idx] = true
	d.stats.Programs++
	return nil
}

func (d *refDevice) EraseBlock(p *sim.Proc, a Addr) error {
	a.Page = 0
	if err := d.check(a); err != nil {
		return err
	}
	if !d.powered {
		return fmt.Errorf("%w: erase %v", ErrPowerLoss, a)
	}
	start := p.Now()
	d.busy(p, a, d.timing.EraseBlock, 0)
	if d.cutDuring(start) {
		return fmt.Errorf("%w: erase %v", ErrPowerLoss, a)
	}
	if err := d.fault(FaultErase, a); err != nil {
		return err
	}
	blk := d.geo.BlockIndex(a)
	base := blk * int64(d.geo.PagesPerBlock)
	for i := 0; i < d.geo.PagesPerBlock; i++ {
		delete(d.pages, base+int64(i))
		delete(d.oob, base+int64(i))
		delete(d.written, base+int64(i))
	}
	d.eraseCount[blk]++
	d.stats.Erases++
	return nil
}

func (d *refDevice) EraseCount(a Addr) int64 { return d.eraseCount[d.geo.BlockIndex(a)] }

func (d *refDevice) IsWritten(a Addr) bool {
	return d.check(a) == nil && d.written[d.geo.PageIndex(a)]
}

func (d *refDevice) CorruptPage(a Addr) bool {
	if d.check(a) != nil {
		return false
	}
	data, ok := d.pages[d.geo.PageIndex(a)]
	if !ok || len(data) == 0 {
		return false
	}
	for i := 0; i < len(data) && i < 64; i++ {
		data[i] = 0x5A ^ byte(i)
	}
	return true
}

func (d *refDevice) InjectRaw(a Addr, data []byte, oob OOB) error {
	if err := d.check(a); err != nil {
		return err
	}
	idx := d.geo.PageIndex(a)
	page := make([]byte, d.geo.PageSize)
	copy(page, data)
	d.pages[idx] = page
	d.oob[idx] = oob
	d.written[idx] = true
	return nil
}

func (d *refDevice) PeekInto(a Addr, dst []byte) (OOB, bool) {
	if d.check(a) != nil {
		return OOB{}, false
	}
	oob, ok := d.oob[d.geo.PageIndex(a)]
	if ok {
		copy(dst, d.pages[d.geo.PageIndex(a)])
	}
	return oob, ok
}

// store is what the differential test needs of either implementation.
type store interface {
	ReadPageOOB(p *sim.Proc, a Addr) ([]byte, OOB, error)
	ReadOOB(p *sim.Proc, a Addr) (OOB, bool, error)
	ProgramPageOOB(p *sim.Proc, a Addr, data []byte, oob OOB) error
	EraseBlock(p *sim.Proc, a Addr) error
	EraseCount(a Addr) int64
	IsWritten(a Addr) bool
	CorruptPage(a Addr) bool
	InjectRaw(a Addr, data []byte, oob OOB) error
	PeekInto(a Addr, dst []byte) (OOB, bool)
	PowerOff()
	PowerOn()
}

var sentinels = []error{ErrOutOfRange, ErrNotErased, ErrUnwritten, ErrPageSize, ErrPowerLoss, errInjected}

// errClass names the sentinel err wraps, so two errors compare by identity.
func errClass(err error) string {
	if err == nil {
		return "nil"
	}
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return s.Error() + " | " + err.Error()
		}
	}
	return "unclassified: " + err.Error()
}

// runOps drives one implementation through the op sequence seed generates
// and returns a transcript of every return value, the virtual time after
// each op, and the final counters. The sequence depends only on the seed,
// never on what the store answers.
func runOps(seed int64, ops int, eng *sim.Engine, geo Geometry, d store, setHook func(func(FaultOp, Addr) error), stats func() Stats) []string {
	var log []string
	rng := rand.New(rand.NewSource(seed))
	faultNext := false
	setHook(func(op FaultOp, a Addr) error {
		if faultNext {
			faultNext = false
			return errInjected
		}
		return nil
	})
	addr := func() Addr {
		// A small corner of the array, so programs, erases and reads collide:
		// a few low pages, a few either side of page 64 (a word boundary of the
		// presence bits and a slab boundary), now and then one out of range.
		a := Addr{Channel: rng.Intn(2), Die: rng.Intn(geo.DiesPerChan), Block: rng.Intn(2), Page: rng.Intn(6)}
		switch rng.Intn(40) {
		case 0:
			a.Page = geo.PagesPerBlock + rng.Intn(3)
		case 1, 2, 3, 4, 5, 6, 7, 8:
			a.Page = 61 + rng.Intn(6)
		}
		return a
	}
	eng.Go("ops", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			a := addr()
			var line string
			switch k := rng.Intn(20); {
			case k < 6: // program, sometimes faulted, sometimes of the wrong size
				data := make([]byte, geo.PageSize)
				rng.Read(data)
				if rng.Intn(30) == 0 {
					data = data[:geo.PageSize-1]
				}
				faultNext = rng.Intn(8) == 0
				oob := OOB{LPN: rng.Int63n(1000), Seq: uint64(i), CRC: rng.Uint32()}
				err := d.ProgramPageOOB(p, a, data, oob)
				faultNext = false
				rng.Read(data) // the store must have taken its own copy
				line = fmt.Sprintf("program %v: %s", a, errClass(err))
			case k < 11: // read
				faultNext = rng.Intn(10) == 0
				data, oob, err := d.ReadPageOOB(p, a)
				faultNext = false
				line = fmt.Sprintf("read %v: %d bytes crc %08x %+v %s", a, len(data), crc32.ChecksumIEEE(data), oob, errClass(err))
				if data != nil {
					rng.Read(data) // scribbling on a returned page must not reach the store
				}
			case k < 13:
				oob, ok, err := d.ReadOOB(p, a)
				line = fmt.Sprintf("oobread %v: %+v %v %s", a, oob, ok, errClass(err))
			case k < 15:
				faultNext = rng.Intn(6) == 0
				err := d.EraseBlock(p, a)
				faultNext = false
				line = fmt.Sprintf("erase %v: %s", a, errClass(err))
			case k < 16:
				line = fmt.Sprintf("corrupt %v: %v", a, d.CorruptPage(a))
			case k < 17:
				data := make([]byte, rng.Intn(2*geo.PageSize))
				rng.Read(data)
				err := d.InjectRaw(a, data, OOB{LPN: -7, Seq: uint64(i)})
				line = fmt.Sprintf("inject %v: %s", a, errClass(err))
			case k < 18: // power cut in the middle of a program
				data := bytes.Repeat([]byte{byte(i)}, geo.PageSize)
				restore := cutIn(p, eng, d, d2(rng, DefaultTiming().ProgramPage))
				err := d.ProgramPageOOB(p, a, data, OOB{LPN: 5, Seq: uint64(i)})
				line = fmt.Sprintf("cut-program %v: %s", a, errClass(err))
				if rng.Intn(2) == 0 {
					_, _, err := d.ReadPageOOB(p, a) // dark, if the program got as far as the cut
					line += " / then read: " + errClass(err)
				}
				restore()
			case k < 19: // power cut in the middle of an erase
				restore := cutIn(p, eng, d, d2(rng, DefaultTiming().EraseBlock))
				err := d.EraseBlock(p, a)
				restore()
				line = fmt.Sprintf("cut-erase %v: %s", a, errClass(err))
			default:
				oob, ok := d.PeekInto(a, nil)
				line = fmt.Sprintf("inspect %v: written=%v oob=%+v/%v wear=%d max=%d", a, d.IsWritten(a), oob, ok, d.EraseCount(a), maxWear(d, geo))
			}
			log = append(log, fmt.Sprintf("%d @%d %s", i, p.Now(), line))
		}
	})
	eng.Run()
	return append(log, fmt.Sprintf("stats %+v", stats()))
}

// cutIn schedules a power cut after delay; the function it returns waits
// until the cut has happened (the operation it was aimed at may have been
// refused up front) and restores power.
func cutIn(p *sim.Proc, eng *sim.Engine, d store, delay time.Duration) (restore func()) {
	at := p.Now().Add(delay)
	eng.After(delay, d.PowerOff)
	return func() {
		if p.Now() <= at {
			p.WaitUntil(at + 1)
		}
		d.PowerOn()
	}
}

// d2 picks an instant strictly inside an operation of length op.
func d2(rng *rand.Rand, op time.Duration) time.Duration {
	return time.Duration(1 + rng.Int63n(int64(op)-1))
}

func TestDifferentialAgainstMapStore(t *testing.T) {
	// 70 pages of 2 KiB: five payload slabs and two presence-bit words a block.
	geo := Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1, BlocksPerPlan: 4, PagesPerBlock: 70, PageSize: 2048}
	for seed := int64(1); seed <= 20; seed++ {
		engNew, engRef := sim.NewEngine(), sim.NewEngine()
		dev := NewDevice(engNew, "nand", geo, DefaultTiming())
		ref := newRefDevice(engRef, geo, DefaultTiming())
		got := runOps(seed, 3000, engNew, geo, dev, dev.SetFaultHook, dev.Stats)
		want := runOps(seed, 3000, engRef, geo, ref, func(fn func(FaultOp, Addr) error) { ref.faultHook = fn }, func() Stats { return ref.stats })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d diverges at step %d:\n slab: %s\n maps: %s", seed, i, got[i], want[i])
			}
		}
	}
}
