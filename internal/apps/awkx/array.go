package awkx

import "sync"

// array is an awk associative array: cells in first-insertion order, and an
// index from each live key to its cell. The cells give `for (k in a)` an
// order that is a property of the program rather than of Go's map seed, and
// the pair can be emptied and handed to the next run with its capacity
// (arrayPool), where a bare map regrew from nothing every time.
type array struct {
	index map[string]int32 // live keys only
	cells []cell           // zero beyond len
	dead  int              // tombstones among cells
	loops int              // for-in loops in progress: cells must not move
	epoch uint64           // for-in loops entered so far
}

// cell is one element. A deleted cell keeps its key and its place until the
// array is compacted, because a for-in that began before the delete still
// has to visit it; diedAt says which loops those are.
type cell struct {
	key    string
	val    value
	diedAt uint64 // 0 while live, else 1 + the array's epoch at the delete
}

// maxPooledCells is the largest table a finished run hands back. A pooled
// table stays allocated until the collector empties the pool, so one run
// that indexed a huge input must not become the footprint of every small
// run after it. 32 Ki cells (1.8 MB) is twice the whole vocabulary of the
// generated books, the largest array any experiment builds.
const maxPooledCells = 1 << 15

var arrayPool = sync.Pool{New: func() any { return &array{index: make(map[string]int32)} }}

// find returns the position of key's live cell, or -1.
func (a *array) find(key string) int32 {
	if pos, ok := a.index[key]; ok {
		return pos
	}
	return -1
}

// insert appends a key that find did not.
func (a *array) insert(key string, v value) {
	a.index[key] = int32(len(a.cells))
	a.cells = append(a.cells, cell{key: key, val: v})
}

func (a *array) length() int { return len(a.cells) - a.dead }

func (a *array) delete(key string) {
	if pos := a.find(key); pos >= 0 {
		delete(a.index, key)
		a.cells[pos].val = value{}
		a.cells[pos].diedAt = a.epoch + 1
		a.dead++
		a.compact()
	}
}

func (a *array) clear() {
	for i := range a.cells {
		if c := &a.cells[i]; c.diedAt == 0 {
			c.val, c.diedAt = value{}, a.epoch+1
		}
	}
	clear(a.index)
	a.dead = len(a.cells)
	a.compact()
}

// compact squeezes the tombstones out once they outnumber the live cells,
// which keeps a delete-heavy program's table O(live keys) at O(1) amortised
// per delete — but never under a for-in, whose position it would move.
func (a *array) compact() {
	if a.loops > 0 || a.dead <= a.length() {
		return
	}
	live := a.cells[:0]
	for _, c := range a.cells {
		if c.diedAt == 0 {
			a.index[c.key] = int32(len(live))
			live = append(live, c)
		}
	}
	clear(a.cells[len(live):])
	a.cells, a.dead = live, 0
}

// release empties the array into the pool. Cells are zeroed, so a pooled
// table references none of the finished run's input.
func (a *array) release() {
	if cap(a.cells) > maxPooledCells {
		return
	}
	clear(a.cells)
	clear(a.index)
	*a = array{index: a.index, cells: a.cells[:0]}
	arrayPool.Put(a)
}
