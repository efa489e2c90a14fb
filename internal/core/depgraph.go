package core

import (
	"container/heap"
	"math"
	"math/bits"

	"caqe/internal/region"
)

// buildDepGraph constructs the dependency graph of Definition 9: a directed
// edge R_i → R_j when the queries W_{i,j} for which R_i's best output cells
// can dominate R_j's (best-corner dominance in the query's preference
// subspace) are not empty. Within one subspace this relation is a strict
// partial order, but its union across queries can contain cycles (R_i
// before R_j for Q_1 in dims {d1,d2}, R_j before R_i for Q_2 in {d2,d3}),
// which would deadlock Algorithm 1's root-driven schedule. Edges are
// therefore filtered through a global linear order — the input pipeline
// order (ascending region ID, row-major over cell pairs) — whose
// restriction is always acyclic; dominance edges agreeing with the order
// are kept, conflicting ones (ambiguous mutual constraints) are dropped.
// The pipeline order also keeps the root schedule aligned with input cells,
// which matters when scores tie (see csmHeap).
//
// Region i's out-edges are one row of depRows, a set over the regions after
// it: probing the index of every best corner upward with R_i's (the regions
// whose Lo R_i's weakly dominates, strictly on one dimension), each query of
// R_i.Alive adds the regions live for it that the probe finds Dominant. The
// charge is one cell-level operation per pair i < j whose Alive sets meet,
// as testing pair by pair would make (DESIGN.md §13).
func (st *state) buildDepGraph() {
	m := len(st.regions)
	st.indegree = make([]int, m)
	st.depWords = (m + 63) / 64
	st.depRows = nil
	if st.e.opt.DisableDependencyGraph {
		return
	}
	st.depRows = make([]uint64, m*st.depWords)
	ranks := st.cornerRanks()
	meet, serving := st.scratchSets()
	var charged int64
	for i, ri := range st.regions {
		if ri.Alive == 0 {
			continue
		}
		st.probe.Above(ranks, ri.Lo)
		row := st.edgeRow(i)
		clear(serving)
		for qi := ri.Alive.Next(0); qi >= 0; qi = ri.Alive.Next(qi + 1) {
			live := st.live[qi]
			st.probe.Dominant(meet, live, st.w.Queries[qi].Pref)
			for w := range row {
				row[w] |= meet[w]
				serving[w] |= live[w]
			}
		}
		// Only forward edges: the pipeline order is the DAG's linear extension.
		row.UnsetTo(i)
		serving.UnsetTo(i)
		charged += int64(serving.Count())
		for w, word := range row {
			for ; word != 0; word &= word - 1 {
				st.indegree[w<<6|bits.TrailingZeros64(word)]++
			}
		}
	}
	st.clock.CountCellOp(charged)
}

// edgeRow returns region ri's out-edges: nil for a region the plan gained
// after the graph was built.
func (st *state) edgeRow(ri int) region.Bits {
	if (ri+1)*st.depWords > len(st.depRows) {
		return nil
	}
	return st.depRows[ri*st.depWords : (ri+1)*st.depWords]
}

// releaseEdges removes the out-edges of a finished (processed or discarded)
// region, pushing any newly-rooted regions into the priority queue in
// ascending region order.
func (st *state) releaseEdges(ri int) {
	row := st.edgeRow(ri)
	for w, word := range row {
		for ; word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			st.indegree[j]--
			if st.indegree[j] == 0 && !st.processed[j] && !st.inQueue[j] && st.pq != nil {
				st.pq.push(j, st.csm(st.regions[j]))
				st.inQueue[j] = true
			}
		}
	}
	clear(row)
}

// csmHeap is a max-heap of (region, score) used as Algorithm 1's inverted
// priority queue. Entries may be stale; callers skip processed regions and
// lazily refresh scores on pop.
//
// Scores are compared on a log2 bucket: regions whose benefit estimates are
// within a factor of two are considered equivalent and processed in input
// pipeline order (ascending region ID, i.e. row-major over the input cell
// pairs) instead. A result's blocking regions share its input cells, so
// completing cell pairs systematically maximizes emission opportunities;
// without this, densely overlapping regions (anti-correlated data) carry
// near-equal scores whose float noise scatters the schedule across the
// space and no result's blocking set ever completes until the very end.
type csmHeap struct{ items []csmItem }

type csmItem struct {
	region int
	score  float64
	bucket int
}

// scoreBucket returns ⌊log2 score⌋, the exponent of score's binary form
// (frexp's exponent less one: 2^b ≤ score < 2^(b+1) holds for every finite
// positive score, subnormals included). Non-positive scores sink below
// every bucket and +Inf tops them; neither NaN nor +Inf arises from the
// CSM's finite factors.
func scoreBucket(score float64) int {
	switch {
	case score <= 0:
		return -1 << 30
	case score > math.MaxFloat64:
		return 1 << 30
	}
	_, exp := math.Frexp(score)
	return exp - 1
}

func newCSMHeap() *csmHeap { return &csmHeap{} }

func (h *csmHeap) Len() int { return len(h.items) }
func (h *csmHeap) Less(i, j int) bool {
	if h.items[i].bucket != h.items[j].bucket {
		return h.items[i].bucket > h.items[j].bucket // max-heap on benefit
	}
	return h.items[i].region < h.items[j].region // then pipeline order
}
func (h *csmHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *csmHeap) Push(x interface{}) { h.items = append(h.items, x.(csmItem)) }
func (h *csmHeap) Pop() interface{} {
	n := len(h.items)
	it := h.items[n-1]
	h.items = h.items[:n-1]
	return it
}

// push adds an entry. It is heap.Push without boxing the item in an
// interface: the same append and sift-up, and no allocation once the
// queue's backing array has grown.
func (h *csmHeap) push(region int, score float64) {
	h.items = append(h.items, csmItem{region: region, score: score, bucket: scoreBucket(score)})
	heap.Fix(h, len(h.items)-1)
}

// popBest removes and returns the top entry; ok is false when empty. The
// returned item carries the score the scheduler is acting on — possibly
// stale, which is exactly what a decision trace must report (recomputing
// would advance the clock).
//
// Like push, it is heap.Pop without the interface: the last entry takes
// the root's place and sifts down.
func (h *csmHeap) popBest() (it csmItem, ok bool) {
	n := len(h.items) - 1
	if n < 0 {
		return csmItem{}, false
	}
	it = h.items[0]
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	if n > 0 {
		heap.Fix(h, 0)
	}
	return it, true
}

// peekBucket returns the current top score bucket without removing it.
func (h *csmHeap) peekBucket() (int, bool) {
	if h.Len() == 0 {
		return 0, false
	}
	return h.items[0].bucket, true
}
