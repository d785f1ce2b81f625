package serve

import "container/heap"

// wfqScale is the fixed-point multiplier for virtual-time tags, so integer
// division by a flow weight keeps sub-unit precision without floats (floats
// would be deterministic here too, but integer tags make the fairness bound
// exact and the proofs in the tests straightforward).
const wfqScale = 1 << 20

// queued is one request waiting in a lane.
type queued struct {
	req   *request
	start int64 // SFQ start tag
	seq   int64 // global arrival order, the FIFO tie-break
}

// wfq is a start-time fair queueing (SFQ) scheduler: each flow's request
// gets a start tag S = max(vtime, last finish tag of the flow) and a finish
// tag F = S + cost*wfqScale/weight; dispatch order is lowest start tag,
// ties broken by arrival order (which also makes ordering within one flow
// FIFO, since a flow's tags are monotone). The scheduler's virtual time
// advances to the start tag of each dispatched request, so an idle flow
// re-joins at the current virtual time instead of collecting credit.
//
// Fairness: while two flows f and g stay backlogged, their normalised
// served work differs by at most one maximal request each:
//
//	|W_f/w_f - W_g/w_g| <= L_f/w_f + L_g/w_g
//
// with W in cost units and L the flow's largest request cost. The property
// test in wfq_test.go checks exactly this bound over random workloads.
type wfq struct {
	vtime      int64
	lastFinish map[string]int64
	h          wfqHeap
	nextSeq    int64
}

func newWFQ() *wfq {
	return &wfq{lastFinish: make(map[string]int64)}
}

// push enqueues a request for flow with the given weight and cost.
func (w *wfq) push(flow string, weight int, cost int64, req *request) {
	weight, cost = max(weight, 1), max(cost, 1)
	start := max(w.vtime, w.lastFinish[flow])
	finish := start + (cost*wfqScale+int64(weight)-1)/int64(weight)
	w.lastFinish[flow] = finish
	q := &queued{req: req, start: start, seq: w.nextSeq}
	w.nextSeq++
	heap.Push(&w.h, q)
}

// pop dequeues the next request in SFQ order, advancing virtual time to its
// start tag. Returns nil when the lane is empty.
func (w *wfq) pop() *request {
	if w.h.Len() == 0 {
		return nil
	}
	q := heap.Pop(&w.h).(*queued)
	w.vtime = max(w.vtime, q.start)
	return q.req
}

type wfqHeap []*queued

func (h wfqHeap) Len() int { return len(h) }
func (h wfqHeap) Less(i, j int) bool {
	if h[i].start != h[j].start {
		return h[i].start < h[j].start
	}
	return h[i].seq < h[j].seq
}
func (h wfqHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *wfqHeap) Push(x interface{}) { *h = append(*h, x.(*queued)) }
func (h *wfqHeap) Pop() interface{} {
	old := *h
	n := len(old)
	q := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return q
}
