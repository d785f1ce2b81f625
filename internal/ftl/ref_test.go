package ftl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"compstor/internal/flash"
	"compstor/internal/sim"
)

// refMaps is the bookkeeping the FTL kept before the flat tables: three Go
// maps and the per-block valid counts they drive, with remap, moveMapping,
// the TRIM unmap loop and the checkpoint serialisation as they were written
// then. The differential test applies every table operation to both.
type refMaps struct {
	l2p    map[int64]int64
	p2l    map[int64]int64
	mapSeq map[int64]uint64
	valid  map[int64]int // block -> live pages
	ppb    int64
}

func newRefMaps(ppb int64) *refMaps {
	return &refMaps{l2p: map[int64]int64{}, p2l: map[int64]int64{}, mapSeq: map[int64]uint64{}, valid: map[int64]int{}, ppb: ppb}
}

func (r *refMaps) remap(lpn, ppn int64, seq uint64) {
	if cur, ok := r.mapSeq[lpn]; ok && cur >= seq {
		return
	}
	if old, ok := r.l2p[lpn]; ok {
		r.valid[old/r.ppb]--
		delete(r.p2l, old)
	}
	r.l2p[lpn] = ppn
	r.p2l[ppn] = lpn
	r.valid[ppn/r.ppb]++
	r.mapSeq[lpn] = seq
}

func (r *refMaps) moveMapping(lpn, oldPPN, newPPN int64) {
	r.valid[oldPPN/r.ppb]--
	delete(r.p2l, oldPPN)
	r.l2p[lpn] = newPPN
	r.p2l[newPPN] = lpn
	r.valid[newPPN/r.ppb]++
}

func (r *refMaps) unmapRange(lpn, count int64, seq uint64) (trims int64) {
	for i := int64(0); i < count; i++ {
		l := lpn + i
		if old, ok := r.l2p[l]; ok {
			r.valid[old/r.ppb]--
			delete(r.p2l, old)
			delete(r.l2p, l)
			trims++
		}
		r.mapSeq[l] = seq
	}
	return trims
}

// stream is the old checkpoint entry stream: collect, sort by lpn, encode.
func (r *refMaps) stream() []byte {
	entries := make([]ckptEntry, 0, len(r.l2p))
	for lpn, ppn := range r.l2p {
		entries = append(entries, ckptEntry{lpn: lpn, ppn: ppn})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].lpn < entries[j].lpn })
	b := make([]byte, len(entries)*ckptEntryBytes)
	for i, e := range entries {
		binary.LittleEndian.PutUint64(b[i*ckptEntryBytes:], uint64(e.lpn))
		binary.LittleEndian.PutUint64(b[i*ckptEntryBytes+8:], uint64(e.ppn))
	}
	return b
}

// compare checks every row, every reverse entry, the counters and the
// checkpoint stream of f against r.
func (r *refMaps) compare(f *FTL) error {
	for lpn := int64(0); lpn < f.logicalPages; lpn++ {
		got := f.l2p.get(lpn)
		want := mapEntry{ppn: -1, seq: r.mapSeq[lpn]}
		if ppn, ok := r.l2p[lpn]; ok {
			want.ppn = ppn
		}
		if got != want {
			return fmt.Errorf("lpn %d: table row %+v, maps say %+v", lpn, got, want)
		}
	}
	for ppn := int64(0); ppn < f.geo.Pages(); ppn++ {
		want, ok := r.p2l[ppn]
		if !ok {
			want = -1
		}
		if got := f.lpnAt(ppn); got != want {
			return fmt.Errorf("ppn %d: reverse entry %d, maps say %d", ppn, got, want)
		}
	}
	if f.l2p.mapped != int64(len(r.l2p)) {
		return fmt.Errorf("MappedPages %d, maps hold %d", f.l2p.mapped, len(r.l2p))
	}
	for blk := range f.blocks {
		if int(f.blocks[blk].valid) != r.valid[int64(blk)] {
			return fmt.Errorf("block %d: valid %d, maps say %d", blk, f.blocks[blk].valid, r.valid[int64(blk)])
		}
	}
	want := r.stream()
	if got := f.encodeMap(); !bytes.Equal(got[:len(want)], want) || len(got)-len(want) >= f.geo.PageSize || len(got)%f.geo.PageSize != 0 {
		return fmt.Errorf("checkpoint stream differs (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// TestTablesAgainstMaps drives the flat tables and the old maps with one
// seeded stream of table operations — fresh writes, overwrites, stale
// programs that lose to a newer sequence, GC moves, TRIMs over mapped and
// never-written ranges — and compares the whole state as it goes.
func TestTablesAgainstMaps(t *testing.T) {
	geo := flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1, BlocksPerPlan: 24, PagesPerBlock: 16, PageSize: 256}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := New(flash.NewDevice(sim.NewEngine(), "nand", geo, flash.DefaultTiming()), DefaultConfig())
		if f.logicalPages <= mapChunkLen {
			t.Fatalf("geometry exports %d pages: the table needs more than one chunk to be tested", f.logicalPages)
		}
		r := newRefMaps(f.ppb)
		seq := uint64(1)
		// A physical page holds one record until its block is erased, so hand
		// out each at most once per lap and skip those still live.
		next := int64(0)
		freshPPN := func() int64 {
			for {
				ppn := next % geo.Pages()
				next += 1 + rng.Int63n(3)
				if _, live := r.p2l[ppn]; !live {
					return ppn
				}
			}
		}
		lpnIn := func() int64 {
			if rng.Intn(4) == 0 {
				return rng.Int63n(f.logicalPages) // anywhere, second chunk included
			}
			return rng.Int63n(96)
		}
		for i := 0; i < 6000; i++ {
			switch k := rng.Intn(10); {
			case k < 5:
				lpn, ppn := lpnIn(), freshPPN()
				s := seq
				seq++
				if rng.Intn(6) == 0 && s > 40 {
					s -= uint64(rng.Intn(40)) // a slow program finishing late
				}
				f.remap(lpn, ppn, s)
				r.remap(lpn, ppn, s)
			case k < 8:
				lpn := lpnIn()
				old, ok := r.l2p[lpn]
				if !ok {
					continue
				}
				ppn := freshPPN()
				f.moveMapping(lpn, old, ppn)
				r.moveMapping(lpn, old, ppn)
			default:
				lpn := lpnIn()
				count := 1 + rng.Int63n(12)
				if lpn+count > f.logicalPages {
					count = f.logicalPages - lpn
				}
				before := f.stats.Trims
				f.unmapRange(lpn, count, seq)
				if got, want := f.stats.Trims-before, r.unmapRange(lpn, count, seq); got != want {
					t.Fatalf("seed %d op %d: trim of [%d,+%d) unmapped %d pages, maps %d", seed, i, lpn, count, got, want)
				}
				seq++
			}
			if i%97 == 0 || i == 5999 {
				if err := r.compare(f); err != nil {
					t.Fatalf("seed %d after op %d: %v", seed, i, err)
				}
			}
		}
	}
}

// audit rebuilds plain maps from f's tables and checks them against each
// other, against every maintained counter, and against the media: the
// page a row points at must carry that row's journal record, and the page
// of a TRIM record not yet covered by a checkpoint that record.
func audit(f *FTL) (l2p map[int64]int64, err error) {
	l2p = map[int64]int64{}
	for lpn := int64(0); lpn < f.logicalPages; lpn++ {
		e := f.l2p.get(lpn)
		if e.ppn < 0 {
			continue
		}
		l2p[lpn] = e.ppn
		if back := f.lpnAt(e.ppn); back != lpn {
			return nil, fmt.Errorf("lpn %d -> ppn %d -> lpn %d", lpn, e.ppn, back)
		}
		oob, ok := f.dev.PeekInto(f.geo.AddrOfPage(e.ppn), nil)
		if !ok || oob.LPN != lpn || oob.Seq != e.seq {
			return nil, fmt.Errorf("lpn %d seq %d: media at ppn %d holds %+v (%v)", lpn, e.seq, e.ppn, oob, ok)
		}
	}
	if f.l2p.mapped != int64(len(l2p)) {
		return nil, fmt.Errorf("MappedPages %d, table holds %d", f.l2p.mapped, len(l2p))
	}
	free := 0
	for _, fl := range f.free {
		free += len(fl)
	}
	if f.freeBlocks != free {
		return nil, fmt.Errorf("FreeBlocks %d, free lists hold %d", f.freeBlocks, free)
	}
	for ppn, ts := range f.trimPages {
		oob, ok := f.dev.PeekInto(f.geo.AddrOfPage(ppn), nil)
		if f.lpnAt(ppn) != oobTrim || ts <= f.ckptSeq || !ok || oob.LPN != oobTrim || oob.Seq != ts {
			return nil, fmt.Errorf("TRIM record at ppn %d, sequence %d (checkpoint %d): reverse entry %d, media holds %+v (%v)",
				ppn, ts, f.ckptSeq, f.lpnAt(ppn), oob, ok)
		}
	}
	inflight := 0
	for blk := range f.blocks {
		st := &f.blocks[blk]
		inflight += int(st.inflight)
		live := 0
		for pg := int64(0); pg < f.ppb; pg++ {
			ppn := int64(blk)*f.ppb + pg
			lpn := f.lpnAt(ppn)
			if lpn == -1 {
				continue
			}
			live++
			if lpn == oobTrim {
				if _, ok := f.trimPages[ppn]; !ok {
					return nil, fmt.Errorf("ppn %d holds a TRIM record the FTL does not track", ppn)
				}
			} else if back, ok := l2p[lpn]; !ok || back != ppn {
				return nil, fmt.Errorf("ppn %d claims lpn %d, which maps to %d (%v)", ppn, lpn, back, ok)
			}
		}
		if int(st.valid) != live {
			return nil, fmt.Errorf("block %d: valid %d, %d live pages", blk, st.valid, live)
		}
	}
	if f.inflight != inflight {
		return nil, fmt.Errorf("inflight total %d, blocks sum to %d", f.inflight, inflight)
	}
	return l2p, nil
}

// TestFTLModelThroughGCCheckpointRecover runs writes, overwrites and TRIMs
// from several concurrent writers — enough to keep GC running and to cross
// automatic checkpoints — against a plain model of the logical contents,
// auditing the tables against the media on the way, then remounts and
// demands the same contents and the same map from recovery.
func TestFTLModelThroughGCCheckpointRecover(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		eng := sim.NewEngine()
		dev := flash.NewDevice(eng, "nand", smallGeo(), flash.DefaultTiming())
		cfg := DefaultConfig()
		cfg.CheckpointEvery = 150
		f := New(dev, cfg)
		span := f.LogicalPages() / 2
		model := make(map[int64]byte) // absent = zeroes
		var failed error
		check := func(p *sim.Proc, f *FTL, when string) {
			if failed != nil {
				return
			}
			buf := make([]byte, f.PageSize())
			for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
				if err := f.ReadPageInto(p, lpn, buf); err != nil {
					failed = fmt.Errorf("%s: read lpn %d: %w", when, lpn, err)
					return
				}
				if !bytes.Equal(buf, fill(f, model[lpn])) {
					failed = fmt.Errorf("%s: lpn %d holds %d.., model says %d", when, lpn, buf[0], model[lpn])
					return
				}
			}
			if _, err := audit(f); err != nil {
				failed = fmt.Errorf("%s: %w", when, err)
			}
		}
		// Writers own disjoint LPN stripes, so the model needs no ordering
		// between them while the FTL still sees concurrent programs and GC.
		const writers = 3
		var wg sim.WaitGroup
		wg.Add(writers)
		for w := 0; w < writers; w++ {
			w := w
			rng := rand.New(rand.NewSource(seed*100 + int64(w)))
			eng.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
				defer wg.Done()
				for i := 0; i < 700 && failed == nil; i++ {
					lpn := rng.Int63n(span/writers)*writers + int64(w)
					if rng.Intn(12) == 0 {
						if err := f.Trim(p, lpn, 1); err != nil {
							failed = fmt.Errorf("trim lpn %d: %w", lpn, err)
						}
						delete(model, lpn)
						continue
					}
					v := byte(1 + rng.Intn(255))
					if err := f.WritePage(p, lpn, fill(f, v)); err != nil {
						failed = fmt.Errorf("write lpn %d: %w", lpn, err)
					}
					model[lpn] = v
				}
			})
		}
		var before map[int64]int64
		eng.Go("main", func(p *sim.Proc) {
			wg.Wait(p)
			check(p, f, "after churn")
			if failed == nil && (f.Stats().GCRuns == 0 || f.Stats().Checkpoints == 0) {
				failed = fmt.Errorf("workload too gentle: %+v", f.Stats())
			}
			if err := f.Checkpoint(p); err != nil {
				failed = err
			}
			// A few more records past the checkpoint, so recovery replays.
			for lpn := int64(0); lpn < 20; lpn++ {
				if err := f.WritePage(p, lpn, fill(f, 0xEE)); err != nil {
					failed = err
				}
				model[lpn] = 0xEE
			}
			before, _ = audit(f)
			dev.PowerOff()
		})
		eng.Run()
		if failed != nil {
			t.Fatalf("seed %d: %v", seed, failed)
		}
		dev.PowerOn()
		f2, rs := recoverFTL(t, eng, dev, cfg)
		run(t, eng, func(p *sim.Proc) error {
			check(p, f2, "after recovery")
			return failed
		})
		after, err := audit(f2)
		if err != nil {
			t.Fatalf("seed %d: recovered: %v", seed, err)
		}
		if rs.RecoveredPages != int64(len(before)) || len(after) != len(before) {
			t.Fatalf("seed %d: %d pages mapped before the cut, %d recovered (stats say %d)", seed, len(before), len(after), rs.RecoveredPages)
		}
		for lpn, ppn := range before {
			if after[lpn] != ppn {
				t.Fatalf("seed %d: lpn %d mapped to ppn %d before the cut, %d after recovery", seed, lpn, ppn, after[lpn])
			}
		}
	}
}
