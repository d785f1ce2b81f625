package ftl

import (
	"fmt"
	"sort"
	"time"

	"compstor/internal/flash"
	"compstor/internal/sim"
)

// RecoveryStats describes what a mount-time recovery found and did.
type RecoveryStats struct {
	CheckpointFound   bool
	CheckpointSeq     uint64 // sequence of the checkpoint used (0 = none)
	CheckpointEntries int    // L2P entries loaded from it
	ScannedPages      int64  // OOB records scanned across the media
	PayloadReads      int64  // full-page reads spent validating candidates
	ReplayedWrites    int64  // mappings recovered from journal records newer than the checkpoint
	ReplayedTrims     int64  // TRIM records replayed
	TornPages         int64  // pages rolled back (torn program, unreadable, or failed CRC)
	DroppedMappings   int64  // stale pre-checkpoint records discarded
	RecoveredPages    int64  // logical pages mapped after recovery
	Elapsed           time.Duration
}

// scanRec is one OOB journal record found by the media scan.
type scanRec struct {
	lpn int64
	seq uint64
	ppn int64
}

// unitScan is the result of scanning one allocation unit's blocks.
type unitScan struct {
	data     []scanRec // records with a real LPN
	trims    []scanRec // TRIM journal records (lpn field unused)
	nextPage []int     // per block in unit: first unwritten page index
	scanned  int64
	torn     int64 // written pages with no readable OOB record
}

// Recover mounts dev by rebuilding FTL state from media: it loads the newest
// valid checkpoint from the reserved regions, scans every data block's OOB
// records in parallel across allocation units, resolves each logical page to
// its highest-sequence intact record, and replays TRIMs. Acknowledged
// writes and TRIMs are recovered exactly; torn (unacknowledged) records roll
// back. The scan is deterministic: identical media state yields an
// identical map.
//
// Grown-bad-block knowledge is deliberately not persisted — a retired block
// reads fine (its live data was relocated before retirement, leaving only
// stale records the sequence discipline ignores) and is re-detected on the
// next program/erase fault.
func Recover(p *sim.Proc, dev *flash.Device, cfg Config) (*FTL, RecoveryStats, error) {
	start := p.Now()
	var rs RecoveryStats
	if dev.PoweredOff() {
		return nil, rs, fmt.Errorf("ftl: recover: %w", flash.ErrPowerLoss)
	}
	f := New(dev, cfg)
	if f.obs != nil {
		sp := f.obs.Begin(p, "ftl", "recovery")
		defer func() {
			f.obs.Histogram("ftl.recovery_scan").Observe(p.Now().Sub(start))
			sp.End()
		}()
	}

	// 1. Newest valid checkpoint wins; a torn checkpoint simply has no valid
	// commit page and loses to the other region (or to no checkpoint at all).
	var commit commitRec
	var entries []ckptEntry
	bestIdx := -1
	for i := 0; i < 2; i++ {
		c, e, ok := f.readRegion(p, f.regions[i])
		if ok && (bestIdx == -1 || c.seq > commit.seq) {
			commit, entries, bestIdx = c, e, i
		}
	}
	ckptMapped := make(map[int64]bool, len(entries))
	if bestIdx >= 0 {
		f.ckptSeq = commit.seq
		f.nextRegion = 1 - bestIdx
		for _, e := range entries {
			ckptMapped[e.lpn] = true
		}
		rs.CheckpointFound = true
		rs.CheckpointSeq = commit.seq
		rs.CheckpointEntries = len(entries)
	}

	// 2. Scan all data blocks' spare areas, one process per allocation unit
	// so the scan rides the media's die-level parallelism (this is what makes
	// remount latency scale with per-unit capacity, not total capacity).
	// Media-op spans parent under the recovery span.
	results := make([]*unitScan, f.units)
	p.Fork(f.units, func(u int) string { return fmt.Sprintf("ftl-recover-scan-%d", u) },
		func(sp *sim.Proc, u int) { results[u] = f.scanUnit(sp, u) })

	// Merge in unit order for determinism.
	var data, trims []scanRec
	for u, r := range results {
		data = append(data, r.data...)
		trims = append(trims, r.trims...)
		rs.ScannedPages += r.scanned
		rs.TornPages += r.torn
		base := int64(u) * f.perUnitBlocks()
		for i, np := range r.nextPage {
			blk := base + int64(f.reservedPerUnit) + int64(i)
			st := &f.blocks[blk]
			if np == 0 {
				continue // untouched: stays free
			}
			// A block left open by the cut is sealed: real controllers close
			// open blocks after a crash rather than resume mid-block.
			st.nextPage = int32(f.ppb)
		}
	}

	// 3. Resolve each logical page to its best record.
	sort.Slice(data, func(i, j int) bool {
		a, b := data[i], data[j]
		if a.lpn != b.lpn {
			return a.lpn < b.lpn
		}
		if a.seq != b.seq {
			return a.seq > b.seq
		}
		return a.ppn < b.ppn
	})
	type winner struct {
		ppn int64
		seq uint64
	}
	won := make(map[int64]winner)
	scratch := f.getPage() // payload checks run one at a time on this process
	defer f.putPage(scratch)
	for i := 0; i < len(data); {
		lpn := data[i].lpn
		j := i
		for j < len(data) && data[j].lpn == lpn {
			j++
		}
		f.resolveLPN(p, data[i:j], ckptMapped[lpn], &rs, scratch, func(ppn int64, seq uint64) {
			won[lpn] = winner{ppn: ppn, seq: seq}
		})
		i = j
	}

	// 4. Replay TRIMs newer than the checkpoint, oldest first. Older TRIM
	// records are garbage (their effect is baked into the checkpoint's
	// mapped set); torn ones were never acknowledged and are ignored.
	sort.Slice(trims, func(i, j int) bool {
		if trims[i].seq != trims[j].seq {
			return trims[i].seq < trims[j].seq
		}
		return trims[i].ppn < trims[j].ppn
	})
	trimRanges := make(map[uint64][2]int64) // seq -> (lpn, count), deduped across GC copies
	for _, t := range trims {
		if t.seq <= f.ckptSeq {
			continue
		}
		if _, seen := trimRanges[t.seq]; seen {
			f.trimPages[t.ppn] = t.seq // extra relocated copy: still live for GC
			continue
		}
		oob, err := f.readPayload(p, t.ppn, &rs, scratch)
		if err != nil || pageCRC(scratch) != oob.CRC {
			rs.TornPages++
			continue // torn TRIM record: the TRIM was never acknowledged
		}
		lpn, count, ok := decodeTrimRecord(scratch, f.logicalPages)
		if !ok {
			rs.TornPages++
			continue
		}
		trimRanges[t.seq] = [2]int64{lpn, count}
		f.trimPages[t.ppn] = t.seq
	}
	trimSeqs := make([]uint64, 0, len(trimRanges))
	for s := range trimRanges {
		trimSeqs = append(trimSeqs, s)
	}
	sort.Slice(trimSeqs, func(i, j int) bool { return trimSeqs[i] < trimSeqs[j] })
	for _, s := range trimSeqs {
		r := trimRanges[s]
		for l := r[0]; l < r[0]+r[1]; l++ {
			if w, ok := won[l]; ok && w.seq < s {
				delete(won, l)
			}
			if e := f.l2p.row(l); e.seq < s {
				e.seq = s
			}
		}
		rs.ReplayedTrims++
	}

	// 5. Install the final map and rebuild allocator state.
	maxSeq := f.ckptSeq
	for _, d := range data {
		maxSeq = max(maxSeq, d.seq)
	}
	for _, t := range trims {
		maxSeq = max(maxSeq, t.seq)
	}
	lpns := make([]int64, 0, len(won))
	for l := range won {
		lpns = append(lpns, l)
	}
	sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
	for _, l := range lpns {
		w := won[l]
		e := f.l2p.row(l)
		e.ppn = w.ppn
		f.l2p.mapped++
		f.setLPNAt(w.ppn, l)
		f.blocks[w.ppn/f.ppb].valid++
		e.seq = max(e.seq, w.seq)
		if w.seq > f.ckptSeq {
			rs.ReplayedWrites++
			f.records++
		}
	}
	for ppn := range f.trimPages {
		f.blocks[ppn/f.ppb].valid++
	}
	f.records += len(trimRanges)
	f.seq = maxSeq + 1
	if bestIdx >= 0 && commit.nextSeq > f.seq {
		f.seq = commit.nextSeq
	}
	// Free lists were built by New assuming fresh media; rebuild from what
	// the scan actually found (ascending, matching New's pop order).
	f.freeBlocks = 0
	for u := 0; u < f.units; u++ {
		f.free[u] = f.free[u][:0]
		base := int64(u) * f.perUnitBlocks()
		for b := f.perUnitBlocks() - 1; b >= int64(f.reservedPerUnit); b-- {
			if f.blocks[base+b].nextPage == 0 {
				f.free[u] = append(f.free[u], base+b)
			}
		}
		f.freeBlocks += len(f.free[u])
	}
	rs.RecoveredPages = f.l2p.mapped
	rs.Elapsed = time.Duration(p.Now() - start)
	return f, rs, nil
}

// readRegion scans one checkpoint region for its commit page and, on
// finding one, reassembles and validates the entry stream. Everything is
// checked — OOB sentinel, per-page CRC, commit magic/version, stream CRC,
// entry ordering and ranges — because after a power cut (or a fuzzer)
// anything can be on these pages, and a bad checkpoint must degrade to "no
// checkpoint", never to a corrupt map.
func (f *FTL) readRegion(p *sim.Proc, region []int64) (commitRec, []ckptEntry, bool) {
	ppb := f.geo.PagesPerBlock
	ps := f.geo.PageSize
	total := len(region) * ppb
	page := f.getPage()
	defer f.putPage(page)
	for i := 0; i < total; i++ {
		a := f.regionAddr(region, i)
		if !f.dev.IsWritten(a) {
			continue
		}
		oob, ok, err := f.readOOBRetry(p, a)
		if err != nil || !ok || oob.LPN != oobCkpt {
			continue
		}
		poob, err := f.dev.ReadPageInto(p, a, page)
		if err != nil || pageCRC(page) != poob.CRC {
			continue
		}
		c, ok := decodeCommit(page)
		if !ok || int(c.chunkPages) != i {
			continue // a chunk page, or a stale commit out of position
		}
		need := int64(c.entryCount) * ckptEntryBytes
		capacity := int64(c.chunkPages) * int64(ps)
		if need > capacity {
			continue
		}
		stream := make([]byte, capacity)
		good := true
		for jj := 0; jj < int(c.chunkPages); jj++ {
			cd := stream[jj*ps : (jj+1)*ps]
			co, err := f.dev.ReadPageInto(p, f.regionAddr(region, jj), cd)
			if err != nil || co.LPN != oobCkpt || co.Seq != c.seq || pageCRC(cd) != co.CRC {
				good = false
				break
			}
		}
		if !good {
			continue
		}
		stream = stream[:need]
		if pageCRC(stream) != c.mapCRC {
			continue
		}
		entries, ok := decodeEntries(stream, int(c.entryCount), f.logicalPages, f.geo.Pages())
		if !ok {
			continue
		}
		return c, entries, true
	}
	return commitRec{}, nil, false
}

// scanUnit walks one allocation unit's data blocks reading OOB records.
// Pages program in slot order within a block, so the first unwritten slot
// ends that block's scan — this is what keeps remount cheap on mostly-empty
// media.
func (f *FTL) scanUnit(p *sim.Proc, u int) *unitScan {
	perUnit := f.perUnitBlocks()
	base := int64(u) * perUnit
	r := &unitScan{nextPage: make([]int, perUnit-int64(f.reservedPerUnit))}
	for b := int64(f.reservedPerUnit); b < perUnit; b++ {
		blk := base + b
		np := 0
		for pg := 0; pg < f.geo.PagesPerBlock; pg++ {
			a := f.geo.AddrOfPage(blk*int64(f.geo.PagesPerBlock) + int64(pg))
			if !f.dev.IsWritten(a) {
				break
			}
			np = pg + 1
			oob, ok, err := f.readOOBRetry(p, a)
			r.scanned++
			if err != nil || !ok {
				// Programmed but no readable record (a faulted program):
				// never acknowledged, rolls back.
				r.torn++
				continue
			}
			ppn := f.geo.PageIndex(a)
			switch {
			case oob.LPN >= 0 && oob.LPN < f.logicalPages:
				r.data = append(r.data, scanRec{lpn: oob.LPN, seq: oob.Seq, ppn: ppn})
			case oob.LPN == oobTrim:
				r.trims = append(r.trims, scanRec{lpn: oobTrim, seq: oob.Seq, ppn: ppn})
			default:
				// Checkpoint pages never live here; anything else (including
				// flash.NoLPN) is not a journal record. Garbage for GC.
			}
		}
		r.nextPage[b-int64(f.reservedPerUnit)] = np
	}
	return r
}

func (f *FTL) readOOBRetry(p *sim.Proc, a flash.Addr) (flash.OOB, bool, error) {
	var lastErr error
	for try := 0; try < 4; try++ {
		oob, ok, err := f.dev.ReadOOB(p, a)
		if err == nil {
			return oob, ok, nil
		}
		lastErr = err
	}
	return flash.OOB{}, false, lastErr
}

// readPayload reads the page at ppn into dst with bounded retries.
func (f *FTL) readPayload(p *sim.Proc, ppn int64, rs *RecoveryStats, dst []byte) (flash.OOB, error) {
	var lastErr error
	for try := 0; try < 3; try++ {
		oob, err := f.dev.ReadPageInto(p, f.geo.AddrOfPage(ppn), dst)
		rs.PayloadReads++
		if err == nil {
			return oob, nil
		}
		lastErr = err
	}
	return flash.OOB{}, lastErr
}

// resolveLPN walks one logical page's candidate records, sorted by sequence
// descending (ties: ascending ppn, from GC's verbatim relocation copies).
//
//   - Records newer than the checkpoint must prove themselves: the payload
//     CRC must match the OOB record. A torn program fails here and recovery
//     falls through to the previous intact version — the rollback the
//     crash-torture suite asserts.
//   - Records at or before the checkpoint are admitted only if the
//     checkpoint says the page was mapped; the newest such record is the
//     checkpointed version (GC preserves sequence numbers verbatim). It is
//     trusted without a payload read when unambiguous — later host reads
//     still CRC-verify it — keeping remount cost scan-dominated.
//   - A pre-checkpoint record for a page the checkpoint holds unmapped is
//     stale garbage from before a TRIM; it and everything older is dropped.
func (f *FTL) resolveLPN(p *sim.Proc, cands []scanRec, inCkpt bool, rs *RecoveryStats, scratch []byte, accept func(ppn int64, seq uint64)) {
	i := 0
	for i < len(cands) {
		seq := cands[i].seq
		j := i
		for j < len(cands) && cands[j].seq == seq {
			j++
		}
		group := cands[i:j]
		if seq > f.ckptSeq {
			picked := false
			for _, c := range group {
				oob, err := f.readPayload(p, c.ppn, rs, scratch)
				if err == nil && pageCRC(scratch) == oob.CRC && oob.Seq == seq {
					accept(c.ppn, seq)
					picked = true
					break
				}
				rs.TornPages++
			}
			if picked {
				return
			}
			i = j
			continue // every copy torn: roll back to the previous version
		}
		if !inCkpt {
			// Pre-checkpoint records for an unmapped page: stale garbage.
			rs.DroppedMappings += int64(len(cands) - i)
			return
		}
		if len(group) == 1 {
			accept(group[0].ppn, seq)
			return
		}
		// Multiple verbatim GC copies: prefer one whose payload verifies,
		// falling back to the first so corruption stays detectable at read.
		for _, c := range group {
			oob, err := f.readPayload(p, c.ppn, rs, scratch)
			if err == nil && pageCRC(scratch) == oob.CRC {
				accept(c.ppn, seq)
				return
			}
		}
		accept(group[0].ppn, seq)
		return
	}
}
