package sim

import (
	"math/bits"
	"slices"
)

// The scheduler is a two-tier calendar queue tuned for the delay profile of
// the CompStor models: the overwhelming majority of events land within a few
// milliseconds of now (flash tR/tProg, bus serialisation, compute quanta),
// with a thin tail of far timers (watchdogs, deadlines, chaos triggers).
//
//   - Tier 1 is a bucket wheel: wheelBuckets slots of bucketWidth virtual
//     nanoseconds each. An event within the wheel horizon is appended to its
//     slot (O(1)); finding the next event scans an occupancy bitmap with
//     TrailingZeros64. Because the clock can never pass a pending event, at
//     most one lap of the wheel is populated at a time, so slot order equals
//     time order and no event ever migrates between slots.
//   - Tier 2 is a plain binary min-heap of value-typed events ordered by
//     (at, seq) for everything beyond the horizon. Spill events never move
//     to the wheel; the next event is simply the min of the two tiers.
//
// Dispatch order must be byte-identical to the old container/heap engine:
// strictly ascending (at, seq). To guarantee the seq tiebreak without
// keeping slots sorted, the queue drains *every* event of the next instant
// — from the wheel slot and the spill heap — into nowQ, sorted by seq, and
// dispatches from there. Same-instant events scheduled while draining nowQ
// append to it in seq order, which is exactly the FIFO the old heap gave.
const (
	// bucketShift sets the bucket width: 2^12 ns ≈ 4.1 µs.
	bucketShift = 12
	// wheelBuckets is the number of wheel slots (must be a power of two).
	// Horizon: 2^12 ns × 2^13 slots ≈ 33.5 ms of virtual time.
	wheelBuckets = 1 << 13
	bucketMask   = wheelBuckets - 1
	occWords     = wheelBuckets / 64
)

// event is a value-typed queue entry (32 bytes): no per-event heap
// allocation and no interface boxing, unlike the old heap of *event.
// Exactly one of p / fn is set: p resumes a process (or runs its pendingFn
// in engine context), fn is a plain callback.
type event struct {
	at  Time
	seq uint64
	p   *Proc
	fn  func()
}

func evLess(a, b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// schedQ is the two-tier queue. It is not safe for concurrent use; like the
// whole package it is engine-context only.
type schedQ struct {
	slots  [][]event // wheel tier: per-bucket unordered event lists
	occ    []uint64  // occupancy bitmap over slots
	wheelN int       // events currently in the wheel

	spill []event // far-timer tier: binary min-heap by (at, seq)

	// nowQ holds every event of the next instant, sorted by seq; nowH is the
	// consumed prefix. The backing array is reused across instants.
	nowQ []event
	nowH int

	// cachedMin memoises the min (at) of wheel+spill while nowQ is empty, so
	// the inline-wait check is O(1) between structural changes.
	cachedMin Time
	cachedOK  bool
}

func (q *schedQ) init() {
	q.slots = make([][]event, wheelBuckets)
	q.occ = make([]uint64, occWords)
}

func (q *schedQ) len() int {
	return q.wheelN + len(q.spill) + (len(q.nowQ) - q.nowH)
}

// insert adds an event. Events at the instant currently being drained join
// nowQ directly (they carry the highest seqs, so append preserves order);
// an event earlier than a pre-filled nowQ forces the fill to be undone.
func (q *schedQ) insert(ev event, now Time) {
	if q.nowH < len(q.nowQ) {
		head := q.nowQ[q.nowH].at
		if ev.at == head {
			q.nowQ = append(q.nowQ, ev)
			return
		}
		if ev.at < head {
			// A peek filled nowQ with a future instant and model code then
			// scheduled something earlier: push the fill back and restart.
			q.unfill(now)
			if ev.at == now {
				q.nowQ = append(q.nowQ, ev)
				return
			}
		}
		q.place(ev, now)
		return
	}
	if ev.at == now {
		q.nowQ = append(q.nowQ, ev)
		return
	}
	q.place(ev, now)
}

// place routes an event with at > now into the wheel or the spill heap.
func (q *schedQ) place(ev event, now Time) {
	b := uint64(ev.at) >> bucketShift
	if b-(uint64(now)>>bucketShift) < wheelBuckets {
		slot := int(b) & bucketMask
		if cap(q.slots[slot]) == 0 {
			// First touch: skip the 1→2→4 growth reallocations. Slot
			// backing arrays are kept across drains, so this is paid once
			// per slot per engine.
			q.slots[slot] = make([]event, 0, 4)
		}
		q.slots[slot] = append(q.slots[slot], ev)
		q.occ[slot>>6] |= 1 << uint(slot&63)
		q.wheelN++
	} else {
		q.spillPush(ev)
	}
	if q.cachedOK && ev.at < q.cachedMin {
		q.cachedMin = ev.at
	}
}

// unfill reverses a fill: pending nowQ events go back to the wheel/spill.
// Rare (only when an external At lands before a pre-filled instant), so the
// temporary copy is acceptable.
func (q *schedQ) unfill(now Time) {
	tmp := append([]event(nil), q.nowQ[q.nowH:]...)
	for i := range q.nowQ {
		q.nowQ[i] = event{}
	}
	q.nowQ = q.nowQ[:0]
	q.nowH = 0
	q.cachedOK = false
	for _, ev := range tmp {
		q.place(ev, now)
	}
}

// fill ensures nowQ holds the next instant's events; reports queue-nonempty.
func (q *schedQ) fill(now Time) bool {
	if q.nowH < len(q.nowQ) {
		return true
	}
	q.nowQ = q.nowQ[:0]
	q.nowH = 0
	wslot, wat, wok := q.wheelMin(now)
	sok := len(q.spill) > 0
	if !wok && !sok {
		return false
	}
	t := wat
	if sok && (!wok || q.spill[0].at < t) {
		t = q.spill[0].at
	}
	fromWheel := false
	if wok && wat == t {
		fromWheel = true
		s := q.slots[wslot]
		k := 0
		for _, ev := range s {
			if ev.at == t {
				q.nowQ = append(q.nowQ, ev)
			} else {
				s[k] = ev
				k++
			}
		}
		moved := len(s) - k
		for i := k; i < len(s); i++ {
			s[i] = event{}
		}
		q.slots[wslot] = s[:k]
		if k == 0 {
			q.occ[wslot>>6] &^= 1 << uint(wslot&63)
		}
		q.wheelN -= moved
	}
	if sok && q.spill[0].at == t {
		for len(q.spill) > 0 && q.spill[0].at == t {
			q.nowQ = append(q.nowQ, q.spillPop())
		}
		if fromWheel {
			// Both tiers contributed seq-ascending runs; restore total order.
			slices.SortFunc(q.nowQ, func(a, b event) int {
				if a.seq < b.seq {
					return -1
				}
				return 1
			})
		}
	}
	q.cachedOK = false
	return true
}

// popReady removes and returns the next event. fill must have succeeded.
func (q *schedQ) popReady() event {
	ev := q.nowQ[q.nowH]
	q.nowQ[q.nowH] = event{}
	q.nowH++
	return ev
}

// nextTime fills and peeks the next dispatch instant.
func (q *schedQ) nextTime(now Time) (Time, bool) {
	if !q.fill(now) {
		return 0, false
	}
	return q.nowQ[q.nowH].at, true
}

// minTime returns the earliest pending timestamp without filling, using the
// cache when valid. This is the inline-wait fast-path check.
func (q *schedQ) minTime(now Time) (Time, bool) {
	if q.nowH < len(q.nowQ) {
		return q.nowQ[q.nowH].at, true
	}
	if q.cachedOK {
		return q.cachedMin, true
	}
	if q.wheelN == 0 && len(q.spill) == 0 {
		return 0, false
	}
	_, wat, wok := q.wheelMin(now)
	t := wat
	if len(q.spill) > 0 && (!wok || q.spill[0].at < t) {
		t = q.spill[0].at
	}
	q.cachedMin, q.cachedOK = t, true
	return t, true
}

// wheelMin scans the occupancy bitmap circularly from now's bucket and
// returns the slot holding the wheel's earliest event. Because at most one
// lap is populated, the first occupied slot in circular order is the
// earliest bucket; the slot's own min handles intra-bucket order.
func (q *schedQ) wheelMin(now Time) (slot int, at Time, ok bool) {
	if q.wheelN == 0 {
		return 0, 0, false
	}
	start := int(uint64(now)>>bucketShift) & bucketMask
	w := start >> 6
	mask := ^uint64(0) << uint(start&63)
	for i := 0; i <= occWords; i++ {
		if word := q.occ[w] & mask; word != 0 {
			s := w<<6 + bits.TrailingZeros64(word)
			return s, q.slotMin(s), true
		}
		mask = ^uint64(0)
		w++
		if w == occWords {
			w = 0
		}
	}
	panic("sim: wheel occupancy out of sync")
}

func (q *schedQ) slotMin(slot int) Time {
	s := q.slots[slot]
	min := s[0].at
	for _, ev := range s[1:] {
		if ev.at < min {
			min = ev.at
		}
	}
	return min
}

func (q *schedQ) spillPush(ev event) {
	q.spill = append(q.spill, ev)
	i := len(q.spill) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(q.spill[i], q.spill[parent]) {
			break
		}
		q.spill[i], q.spill[parent] = q.spill[parent], q.spill[i]
		i = parent
	}
}

func (q *schedQ) spillPop() event {
	top := q.spill[0]
	n := len(q.spill) - 1
	q.spill[0] = q.spill[n]
	q.spill[n] = event{}
	q.spill = q.spill[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && evLess(q.spill[r], q.spill[l]) {
			c = r
		}
		if !evLess(q.spill[c], q.spill[i]) {
			break
		}
		q.spill[i], q.spill[c] = q.spill[c], q.spill[i]
		i = c
	}
	return top
}
