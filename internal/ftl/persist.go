package ftl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"compstor/internal/flash"
	"compstor/internal/sim"
)

// On-media formats -----------------------------------------------------------
//
// Every program carries an OOB record {LPN, Seq, CRC32C(payload)}. Data
// pages use their real LPN; journal metadata pages use negative sentinels:
//
//	oobTrim: the payload is a TRIM record — magic "CTRM", lpn, count. The
//	  record is programmed before any mapping is dropped, so recovery can
//	  revoke exactly the acknowledged TRIMs.
//	oobCkpt: the page belongs to a checkpoint region. A checkpoint is an
//	  (lpn, ppn) entry stream in ascending lpn order split across chunk
//	  pages, committed by
//	  a final commit page ("CCKP", seq, chunkPages, entryCount, mapCRC,
//	  nextSeq) — the commit is written last, so a torn checkpoint is simply
//	  invisible and recovery falls back to the other region.
//
// Two reserved regions ping-pong: the previous checkpoint stays intact
// while the next one is written. Region blocks are the first
// reservedPerUnit block slots of every allocation unit, interleaved
// slot-major so consecutive checkpoint pages stripe across channels.

const (
	oobTrim int64 = -2 // spare-area LPN sentinel: TRIM journal record
	oobCkpt int64 = -3 // spare-area LPN sentinel: checkpoint region page

	trimMagic   uint32 = 0x4D525443 // "CTRM"
	commitMagic uint32 = 0x504B4343 // "CCKP"
	ckptVersion uint32 = 1

	ckptEntryBytes = 16 // lpn u64 | ppn u64
	commitBytes    = 36
	trimRecBytes   = 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func pageCRC(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// reservedLayout sizes the checkpoint regions for a worst-case full map and
// returns the per-unit reserved slot count plus the two region block lists.
func reservedLayout(geo flash.Geometry, overProvision float64) (perUnit int, regions [2][]int64) {
	units := geo.Channels * geo.DiesPerChan
	worstEntries := int64(float64(geo.Pages()) * (1 - overProvision))
	streamPages := (worstEntries*ckptEntryBytes + int64(geo.PageSize) - 1) / int64(geo.PageSize)
	blocksPerRegion := (streamPages + 1 + int64(geo.PagesPerBlock) - 1) / int64(geo.PagesPerBlock)
	need := 2 * blocksPerRegion
	perUnit = int((need + int64(units) - 1) / int64(units))
	perUnitBlocks := int64(geo.PlanesPerDie) * int64(geo.BlocksPerPlan)
	if int64(perUnit) >= perUnitBlocks {
		panic(fmt.Sprintf("ftl: geometry too small to reserve checkpoint regions (%d of %d blocks per unit)", perUnit, perUnitBlocks))
	}
	var slots []int64
	for s := 0; s < perUnit; s++ {
		for u := 0; u < units; u++ {
			slots = append(slots, int64(u)*perUnitBlocks+int64(s))
		}
	}
	half := len(slots) / 2
	regions[0] = slots[:half]
	regions[1] = slots[half:]
	return perUnit, regions
}

// regionAddr returns the address of logical page i of a checkpoint region.
func (f *FTL) regionAddr(region []int64, i int) flash.Addr {
	ppb := f.geo.PagesPerBlock
	blk := region[i/ppb]
	return f.geo.AddrOfPage(blk*int64(ppb) + int64(i%ppb))
}

// encodeTrimRecord fills the page b with a TRIM record, zero-padded.
func encodeTrimRecord(b []byte, lpn, count int64) {
	clear(b)
	binary.LittleEndian.PutUint32(b, trimMagic)
	binary.LittleEndian.PutUint64(b[4:], uint64(lpn))
	binary.LittleEndian.PutUint64(b[12:], uint64(count))
}

func decodeTrimRecord(b []byte, logicalPages int64) (lpn, count int64, ok bool) {
	if len(b) < trimRecBytes || binary.LittleEndian.Uint32(b) != trimMagic {
		return 0, 0, false
	}
	lpn = int64(binary.LittleEndian.Uint64(b[4:]))
	count = int64(binary.LittleEndian.Uint64(b[12:]))
	if lpn < 0 || count <= 0 || count > logicalPages || lpn > logicalPages-count {
		return 0, 0, false
	}
	return lpn, count, true
}

type commitRec struct {
	seq        uint64
	chunkPages uint32
	entryCount uint32
	mapCRC     uint32
	nextSeq    uint64
}

// encodeCommit fills the page b with a commit record, zero-padded.
func encodeCommit(b []byte, c commitRec) {
	clear(b)
	binary.LittleEndian.PutUint32(b, commitMagic)
	binary.LittleEndian.PutUint32(b[4:], ckptVersion)
	binary.LittleEndian.PutUint64(b[8:], c.seq)
	binary.LittleEndian.PutUint32(b[16:], c.chunkPages)
	binary.LittleEndian.PutUint32(b[20:], c.entryCount)
	binary.LittleEndian.PutUint32(b[24:], c.mapCRC)
	binary.LittleEndian.PutUint64(b[28:], c.nextSeq)
}

func decodeCommit(b []byte) (commitRec, bool) {
	if len(b) < commitBytes ||
		binary.LittleEndian.Uint32(b) != commitMagic ||
		binary.LittleEndian.Uint32(b[4:]) != ckptVersion {
		return commitRec{}, false
	}
	return commitRec{
		seq:        binary.LittleEndian.Uint64(b[8:]),
		chunkPages: binary.LittleEndian.Uint32(b[16:]),
		entryCount: binary.LittleEndian.Uint32(b[20:]),
		mapCRC:     binary.LittleEndian.Uint32(b[24:]),
		nextSeq:    binary.LittleEndian.Uint64(b[28:]),
	}, true
}

type ckptEntry struct {
	lpn, ppn int64
}

// encodeMap serialises the mapped rows of the L2P table in ascending lpn
// order into whole pages, zero-padded; the entry stream is the first
// mapped×ckptEntryBytes bytes.
func (f *FTL) encodeMap() []byte {
	f.l2p.live()
	ps := int64(f.geo.PageSize)
	need := f.l2p.mapped * ckptEntryBytes
	b := make([]byte, (need+ps-1)/ps*ps)
	at := 0
	for ci, c := range f.l2p.chunks {
		if c == nil {
			continue
		}
		for i := range c {
			if c[i].ppn < 0 {
				continue
			}
			binary.LittleEndian.PutUint64(b[at:], uint64(ci<<mapChunkShift|i))
			binary.LittleEndian.PutUint64(b[at+8:], uint64(c[i].ppn))
			at += ckptEntryBytes
		}
	}
	return b
}

// decodeEntries validates and decodes an entry stream: lpns strictly
// increasing and in logical range, ppns in physical range. Any violation
// rejects the whole checkpoint (recovery falls back to the other region and
// a longer replay) — malformed bytes must never corrupt the map.
func decodeEntries(stream []byte, n int, logicalPages, totalPages int64) ([]ckptEntry, bool) {
	if int64(n)*ckptEntryBytes != int64(len(stream)) {
		return nil, false
	}
	entries := make([]ckptEntry, n)
	prev := int64(-1)
	for i := 0; i < n; i++ {
		lpn := int64(binary.LittleEndian.Uint64(stream[i*ckptEntryBytes:]))
		ppn := int64(binary.LittleEndian.Uint64(stream[i*ckptEntryBytes+8:]))
		if lpn <= prev || lpn >= logicalPages || ppn < 0 || ppn >= totalPages {
			return nil, false
		}
		entries[i] = ckptEntry{lpn: lpn, ppn: ppn}
		prev = lpn
	}
	return entries, true
}

// Checkpointing --------------------------------------------------------------

// waitCheckpoint stalls a mutating caller while a checkpoint snapshot is
// being written (the write cliff a real controller shows at checkpoint
// time). Reads proceed freely.
func (f *FTL) waitCheckpoint(p *sim.Proc) {
	for f.inCkpt {
		f.ckptDone.Wait(p)
	}
}

// maybeCheckpoint writes a checkpoint when the journal since the last one
// has grown past the configured interval. The effective threshold also
// scales with the mapped-page count, so serialising the full map stays a
// bounded (~2%) fraction of write work on large maps.
func (f *FTL) maybeCheckpoint(p *sim.Proc) error {
	if f.cfg.CheckpointEvery < 0 || f.inCkpt {
		return nil
	}
	if f.records < max(f.cfg.CheckpointEvery, int(f.l2p.mapped/4)) {
		return nil
	}
	if err := f.Checkpoint(p); err != nil {
		// A checkpoint is an optimisation (it bounds recovery replay), not a
		// durability requirement: every acknowledged record still has its OOB
		// journal entry on media. A transient fault in the checkpoint path
		// must not fail the host write that triggered it — count it and
		// retry on a later write. Power loss does propagate: the device is
		// down, not merely unlucky.
		if errors.Is(err, flash.ErrPowerLoss) {
			return err
		}
		f.stats.CheckpointFails++
	}
	return nil
}

// Flush is the barrier behind NVMe FLUSH. The FTL has no volatile write
// cache — WritePage programs the payload and its OOB journal record before
// acknowledging — so every acknowledged write is already power-cut durable
// and Flush only waits out a checkpoint in progress. Checkpoint bounds
// recovery replay.
func (f *FTL) Flush(p *sim.Proc) error {
	f.waitCheckpoint(p)
	return nil
}

// Checkpoint serialises the L2P map into the next reserved region and
// commits it. Concurrent writers stall at waitCheckpoint while the snapshot
// is written; records sequenced after the snapshot simply replay on the
// next mount. The commit page is written last: a power cut anywhere during
// the checkpoint leaves the previous one (in the other region) intact.
func (f *FTL) Checkpoint(p *sim.Proc) error {
	f.waitCheckpoint(p)
	f.inCkpt = true
	defer func() {
		f.inCkpt = false
		f.ckptDone.Broadcast()
	}()
	defer f.obs.Time(p, "ftl", "checkpoint", f.histCkpt).End()
	// Drain programs whose sequence predates the snapshot; new mutators are
	// stalled, so this terminates.
	for f.inflight > 0 {
		f.drained.Wait(p)
	}

	// The snapshot is taken here in one step: a GC pass caught between two
	// of its programs keeps remapping while the chunk pages below go out.
	entries := f.l2p.mapped
	stream := f.encodeMap()
	s := f.seq
	f.seq++

	region := f.regions[f.nextRegion]
	ps := f.geo.PageSize
	ppb := f.geo.PagesPerBlock
	chunkPages := len(stream) / ps
	if chunkPages+1 > len(region)*ppb {
		return fmt.Errorf("ftl: checkpoint of %d entries overflows reserved region", entries)
	}
	usedBlocks := (chunkPages + 1 + ppb - 1) / ppb
	for b := 0; b < usedBlocks; b++ {
		blk := region[b]
		if !f.blockHasWrites(blk) {
			continue
		}
		if err := f.dev.EraseBlock(p, f.geo.AddrOfBlock(blk)); err != nil {
			return fmt.Errorf("ftl: checkpoint erase: %w", err)
		}
	}
	for i := 0; i < chunkPages; i++ {
		page := stream[i*ps : (i+1)*ps]
		oob := flash.OOB{LPN: oobCkpt, Seq: s, CRC: pageCRC(page)}
		if err := f.dev.ProgramPageOOB(p, f.regionAddr(region, i), page, oob); err != nil {
			return fmt.Errorf("ftl: checkpoint chunk %d: %w", i, err)
		}
	}
	commit := f.getPage()
	defer f.putPage(commit)
	encodeCommit(commit, commitRec{
		seq:        s,
		chunkPages: uint32(chunkPages),
		entryCount: uint32(entries),
		mapCRC:     pageCRC(stream[:entries*ckptEntryBytes]),
		nextSeq:    f.seq,
	})
	oob := flash.OOB{LPN: oobCkpt, Seq: s, CRC: pageCRC(commit)}
	if err := f.dev.ProgramPageOOB(p, f.regionAddr(region, chunkPages), commit, oob); err != nil {
		return fmt.Errorf("ftl: checkpoint commit: %w", err)
	}
	f.nextRegion = 1 - f.nextRegion
	f.ckptSeq = s
	f.records = 0
	f.stats.Checkpoints++
	f.stats.CheckpointWrites += int64(chunkPages) + 1
	// TRIM records at or before the checkpoint are now superseded: their
	// pages become plain garbage for GC.
	for ppn, ts := range f.trimPages {
		if ts <= s {
			f.setLPNAt(ppn, -1)
			delete(f.trimPages, ppn)
		}
	}
	return nil
}

// blockHasWrites reports whether any page of blk is programmed (RAM-side
// bookkeeping, no timing — a controller knows which region blocks it used).
func (f *FTL) blockHasWrites(blk int64) bool {
	base := blk * int64(f.geo.PagesPerBlock)
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		if f.dev.IsWritten(f.geo.AddrOfPage(base + int64(i))) {
			return true
		}
	}
	return false
}
