package ssd

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"compstor/internal/flash"
	"compstor/internal/ftl"
	"compstor/internal/obs"
	"compstor/internal/pcie"
	"compstor/internal/sim"
)

// refForEachPage is the worker-process fan-out multi-page reads used before
// they moved into engine context (readBatch): a copy of SSD.forEachPage as it
// stood then, kept as the oracle the batch is held to. One process per lane,
// lane w taking pages w, w+lanes, …; the first error stops every lane at its
// next page.
func (s *SSD) refForEachPage(p *sim.Proc, n int64, fn func(cp *sim.Proc, i int64) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return fn(p, 0)
	}
	workers := int64(len(s.ioNames))
	if workers > n {
		workers = n
	}
	var wg sim.WaitGroup
	var firstErr error
	wg.Add(int(workers))
	obsCtx := p.ObsCtx()
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

// readPagesFn reads a list of pages on behalf of p: the batch, or the
// reference.
type readPagesFn func(s *SSD, p *sim.Proc, pages []pageRead) error

func batchRead(s *SSD, p *sim.Proc, pages []pageRead) error {
	b := s.newBatch()
	defer b.release()
	b.pages = append(b.pages, pages...)
	return b.run(p)
}

func refRead(s *SSD, p *sim.Proc, pages []pageRead) error {
	return s.refForEachPage(p, int64(len(pages)), func(cp *sim.Proc, i int64) error {
		return s.ftl.ReadPageInto(cp, pages[i].lpn, pages[i].dst)
	})
}

// fanOutScenario is one drive, a set of concurrent readers, and everything
// that can get between a reader and its pages.
type fanOutScenario struct {
	geo        flash.Geometry
	written    []bool // which logical pages hold data when the readers start
	readers    [][]fanOutRead
	writes     []fanOutWrite // one writer process, programming beside the reads
	faultEvery int64         // every faultEvery-th media read fails; 0 = never
	rotEvery   int64         // every rotEvery-th staged page is corrupted on the media; 0 = none
	powerOffAt time.Duration // 0 = never
	powerOnAt  time.Duration // 0 = stays off
}

type fanOutRead struct {
	after time.Duration // gap before the read is issued
	lpns  []int64       // need not be contiguous, may run past the end of the drive
}

type fanOutWrite struct {
	after time.Duration
	lpn   int64
	pages int
}

// newFanOutScenario derives a scenario from fuzz input: a small geometry
// (so that dies are contended and most reads have more pages than lanes),
// overlapping reader ranges, holes, a writer, faults and a power cut.
func newFanOutScenario(seed int64, shape uint32) fanOutScenario {
	rng := rand.New(rand.NewSource(seed))
	bit := func(n uint) int { return int(shape >> n & 1) }
	sc := fanOutScenario{geo: flash.Geometry{
		Channels:      1 + int(shape&3),
		DiesPerChan:   1 + bit(2),
		PlanesPerDie:  1,
		BlocksPerPlan: 24,
		PagesPerBlock: 8,
		PageSize:      512,
	}}
	span := int64(40 + rng.Intn(40)) // the logical range everything happens in
	sc.written = make([]bool, span)
	for i := range sc.written {
		sc.written[i] = rng.Intn(6) != 0
	}
	if bit(3) == 1 { // one long hole: many pages in a row that finish at once
		for i, n := int(rng.Int63n(span/2)), 0; n < 24 && i < len(sc.written); i, n = i+1, n+1 {
			sc.written[i] = false
		}
	}
	for r, n := 0, 2+int(shape>>4&3); r < n; r++ {
		var reads []fanOutRead
		for k, m := 0, 1+rng.Intn(3); k < m; k++ {
			rd := fanOutRead{after: time.Duration(rng.Intn(150)) * time.Microsecond}
			base, count := rng.Int63n(span), 1+rng.Int63n(40)
			if rng.Intn(8) == 0 {
				base = 1<<40 - count/2 // runs off the end of the drive mid-read
			}
			for i := int64(0); i < count; i++ {
				if rng.Intn(10) != 0 { // a page list with gaps, as the read cache's misses are
					rd.lpns = append(rd.lpns, base+i)
				}
			}
			reads = append(reads, rd)
		}
		sc.readers = append(sc.readers, reads)
	}
	if bit(6) == 1 {
		for k, m := 0, 1+rng.Intn(4); k < m; k++ {
			sc.writes = append(sc.writes, fanOutWrite{
				after: time.Duration(rng.Intn(200)) * time.Microsecond,
				lpn:   rng.Int63n(span - 4),
				pages: 1 + rng.Intn(4),
			})
		}
	}
	if bit(7) == 1 {
		sc.faultEvery = 2 + rng.Int63n(30)
	}
	if bit(10) == 1 {
		sc.rotEvery = 3 + rng.Int63n(8)
	}
	if bit(8) == 1 {
		sc.powerOffAt = time.Duration(1+rng.Intn(600)) * time.Microsecond
		if bit(9) == 1 {
			sc.powerOnAt = sc.powerOffAt + time.Duration(1+rng.Intn(100))*time.Microsecond
		}
	}
	return sc
}

// fanOutOutcome is everything the model computed in one run of a scenario,
// and how the scheduler was used to compute it.
type fanOutOutcome struct {
	Reads []string // per reader and read: completion instant, error, bytes
	Flash flash.Stats
	FTL   ftl.Stats
	Dies  []string // per die: busy time, grants
	Buses []string // per channel: busy time, transfers, bytes
	Media []string // every media operation that ran to its end: instant, kind, address (sorted)
	End   sim.Time

	procs    int64  // processes started after staging
	events   int64  // events dispatched after staging
	snapshot string // traced runs: the metrics snapshot and the exported trace
	trace    string
}

// model returns the part of the outcome that may not depend on how the
// fan-out is implemented or on whether anyone is watching.
func (o fanOutOutcome) model() fanOutOutcome {
	o.procs, o.events, o.snapshot, o.trace = 0, 0, "", ""
	return o
}

// run plays the scenario with the given fan-out, with observability attached
// (and tracing on) or not.
func (sc fanOutScenario) run(t testing.TB, read readPagesFn, traced bool) fanOutOutcome {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	fabric := pcie.NewFabric(eng)
	cfg := DefaultConfig("ssd0")
	cfg.Geometry = sc.geo
	var o *obs.Obs
	if traced {
		o = obs.New()
		o.EnableTrace()
		cfg.Obs = o.Scope("ssd0")
	}
	s := New(eng, fabric.AddPort(), cfg)
	ps := s.PageSize()
	dies, buses := watchMedia(s.dev)
	logical := s.ftl.LogicalPages()

	// Stage: every written page carries its own number.
	eng.Go("stage", func(p *sim.Proc) {
		for lpn, w := range sc.written {
			if w {
				if err := s.Write(p, int64(lpn), pagePattern(byte(lpn), ps)); err != nil {
					t.Errorf("stage lpn %d: %v", lpn, err)
				}
			}
		}
	})
	t0 := eng.Run()
	for ppn, stored := int64(0), int64(0); sc.rotEvery > 0 && ppn < sc.geo.Pages(); ppn++ {
		if a := sc.geo.AddrOfPage(ppn); s.dev.IsWritten(a) {
			if stored++; stored%sc.rotEvery == 0 {
				s.dev.CorruptPage(a) // the FTL's CRC check must catch it, in the same read
			}
		}
	}

	var out fanOutOutcome
	acct := eng.EnableAccounting(sim.AccountingConfig{})
	reads := 0
	s.dev.SetFaultHook(func(op flash.FaultOp, a flash.Addr) error {
		out.Media = append(out.Media, fmt.Sprintf("@%v %v %v", s.dev.Now().Sub(t0), op, a))
		if op != flash.FaultRead || sc.faultEvery == 0 {
			return nil
		}
		if reads++; int64(reads)%sc.faultEvery == 0 {
			return fmt.Errorf("injected: media read %d at %v", reads, a)
		}
		return nil
	})
	if sc.powerOffAt > 0 {
		eng.At(t0.Add(sc.powerOffAt), s.dev.PowerOff)
	}
	if sc.powerOnAt > 0 {
		eng.At(t0.Add(sc.powerOnAt), s.dev.PowerOn)
	}
	results := make([][]string, len(sc.readers))
	for r, rds := range sc.readers {
		r, rds := r, rds
		eng.Go(fmt.Sprintf("reader%d", r), func(p *sim.Proc) {
			for _, rd := range rds {
				p.Wait(rd.after)
				sp := cfg.Obs.Begin(p, "readers", "read")
				buf := bytes.Repeat([]byte{0xEE}, len(rd.lpns)*ps)
				pages := make([]pageRead, len(rd.lpns))
				for i, lpn := range rd.lpns {
					if lpn >= 1<<39 {
						lpn += logical - 1<<40
					}
					pages[i] = pageRead{lpn, buf[i*ps : (i+1)*ps]}
				}
				err := read(s, p, pages)
				sp.End()
				results[r] = append(results[r], fmt.Sprintf("@%v err=%v %x", p.Now().Sub(t0), err, buf))
			}
		})
	}
	if len(sc.writes) > 0 {
		eng.Go("writer", func(p *sim.Proc) {
			for k, w := range sc.writes {
				p.Wait(w.after)
				_ = s.Write(p, w.lpn, bytes.Repeat(pagePattern(byte(0x80+k), ps), w.pages)) // fails once the power is cut, in both runs alike
			}
		})
	}
	out.End = eng.Run()

	for _, rs := range results {
		out.Reads = append(out.Reads, rs...)
	}
	out.Flash, out.FTL = s.dev.Stats(), s.ftl.Stats()
	for i, n := range dies {
		out.Dies = append(out.Dies, fmt.Sprintf("busy=%v grants=%d", s.dev.Die(i).BusyTime(), n))
	}
	for c, ld := range buses {
		out.Buses = append(out.Buses, fmt.Sprintf("busy=%v transfers=%d bytes=%d", ld.busy, ld.n, s.dev.ChannelBus(c).Bytes()))
	}
	sort.Strings(out.Media)
	out.procs, out.events = acct.ProcsStarted(), acct.Events()
	if traced {
		var snap, tr bytes.Buffer
		if err := o.Snapshot("fanout").WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		if err := o.WriteTrace(&tr); err != nil {
			t.Fatal(err)
		}
		out.snapshot, out.trace = snap.String(), tr.String()
	}
	return out
}

// busLoad is what a channel bus carried: transfers and their occupancy.
type busLoad struct {
	n    int
	busy sim.Duration
}

// watchMedia counts, from now on, every die grant and every bus transfer
// of dev, through the dies' queue-time hooks and the buses' busy hooks.
func watchMedia(dev *flash.Device) (grants []int64, buses []*busLoad) {
	geo := dev.Geometry()
	grants = make([]int64, geo.Channels*geo.DiesPerChan)
	for i := range grants {
		dev.Die(i).SetQueueTimeHook(func(sim.Duration) { grants[i]++ })
	}
	for c := 0; c < geo.Channels; c++ {
		ld := &busLoad{}
		dev.ChannelBus(c).SetBusyHook(func(_ sim.Time, d sim.Duration) { ld.n++; ld.busy += d })
		buses = append(buses, ld)
	}
	return grants, buses
}

// checkFanOut plays a scenario four ways — reference and batch, plain and
// traced — and requires the model to have computed the same thing in all of
// them: every reader's completion instants, errors and bytes, the flash and
// FTL counters, every die's busy time and grant count, every bus's busy
// time, transfer count and bytes, the instant, kind and address of every
// media operation that ran to its end, and the final clock. The two traced
// runs must also agree on the metrics snapshot and on the exported trace
// byte for byte: same span ids, parents, tracks, begin and end instants, in
// the same order.
func checkFanOut(t *testing.T, sc fanOutScenario) (ref, batch fanOutOutcome) {
	t.Helper()
	ref, batch = sc.run(t, refRead, false), sc.run(t, batchRead, false)
	refTraced, batchTraced := sc.run(t, refRead, true), sc.run(t, batchRead, true)
	for name, got := range map[string]fanOutOutcome{"batch": batch, "traced reference": refTraced, "traced batch": batchTraced} {
		if !reflect.DeepEqual(got.model(), ref.model()) {
			t.Errorf("%s diverges from the reference\n got %+v\nwant %+v", name, got.model(), ref.model())
		}
	}
	if refTraced.snapshot != batchTraced.snapshot {
		t.Errorf("traced metrics snapshots differ\nreference %s\nbatch %s", refTraced.snapshot, batchTraced.snapshot)
	}
	if refTraced.trace != batchTraced.trace {
		t.Errorf("exported traces differ\nreference %s\nbatch %s", refTraced.trace, batchTraced.trace)
	}
	return ref, batch
}

// FuzzReadFanOut holds the engine-context read fan-out to the worker-process
// one it replaced, over random small drives: several concurrent readers with
// overlapping ranges on contended dies, unmapped holes, more pages than
// lanes, reads that run off the end of the drive, a writer programming the
// same channels, injected media faults, corrupted pages and a power cut.
func FuzzReadFanOut(f *testing.F) {
	f.Add(int64(1), uint32(0))              // one die, two lanes: everything queues
	f.Add(int64(2), uint32(0b0000_1011))    // 4 channels, a 24-page hole
	f.Add(int64(3), uint32(0b0111_0101))    // 2 ch × 2 dies, five readers, a writer
	f.Add(int64(4), uint32(0b1011_0010))    // faults on every few reads
	f.Add(int64(5), uint32(0b1_0100_0001))  // power cut under a writer
	f.Add(int64(6), uint32(0b11_1111_0110)) // everything, and the power comes back
	f.Add(int64(2018), uint32(0b01_1100_1100))
	f.Add(int64(8), uint32(0b100_0011_0001)) // bit rot: the CRC check fails some reads
	f.Fuzz(func(t *testing.T, seed int64, shape uint32) {
		checkFanOut(t, newFanOutScenario(seed, shape))
	})
}

// TestReadFanOutStartsNoProcess: with no writer about, the only processes a
// scenario starts are its readers — a multi-page read costs one start event,
// two events per media read and one per contended die grant, all billed to
// the drive's io label where the workers' events went.
func TestReadFanOutStartsNoProcess(t *testing.T) {
	sc := newFanOutScenario(7, 0b0011_0000) // one die, five readers, nothing else
	ref, batch := checkFanOut(t, sc)
	if want := int64(len(sc.readers)); batch.procs != want || ref.procs <= want {
		t.Errorf("processes started: batch %d, reference %d; want %d and more", batch.procs, ref.procs, want)
	}
	if batch.events == 0 || batch.events >= ref.events {
		t.Errorf("events dispatched: batch %d, reference %d; want fewer, not none", batch.events, ref.events)
	}
	if batch.Flash.Reads < 40 {
		t.Errorf("only %d media reads: the scenario is vacuous", batch.Flash.Reads)
	}
}
