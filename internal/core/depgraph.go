package core

import (
	"container/heap"
	"math"
)

// buildDepGraph constructs the dependency graph of Definition 9: a directed
// edge R_i → R_j annotated with the queries W_{i,j} for which R_i's best
// output cells can dominate R_j's (best-corner dominance in the query's
// preference subspace). Within one subspace this relation is a strict
// partial order, but its union across queries can contain cycles (R_i
// before R_j for Q_1 in dims {d1,d2}, R_j before R_i for Q_2 in {d2,d3}),
// which would deadlock Algorithm 1's root-driven schedule. Edges are
// therefore filtered through a global linear order — the input pipeline
// order (ascending region ID, row-major over cell pairs) — whose
// restriction is always acyclic; dominance edges agreeing with the order
// are kept, conflicting ones (ambiguous mutual constraints) are dropped.
// The pipeline order also keeps the root schedule aligned with input
// cells, which matters when scores tie (see csmHeap).
// Per-pair dominance geometry is resolved once for every query
// (region.QueryDims.Pair) and charged as one cell-level operation.
func (st *state) buildDepGraph() {
	m := len(st.regions)
	st.outEdges = make([][]depEdge, m)
	st.indegree = make([]int, m)
	if st.e.opt.DisableDependencyGraph {
		return
	}
	for i, ri := range st.regions {
		// Only forward edges: the pipeline order is the DAG's linear extension.
		for j := i + 1; j < m; j++ {
			rj := st.regions[j]
			both := ri.Alive & rj.Alive
			if both == 0 {
				continue
			}
			st.clock.CountCellOp(1)
			notWeak, strict := st.uses.Pair(ri.Lo, rj.Lo)
			if mask := both & strict &^ notWeak; mask != 0 {
				st.outEdges[i] = append(st.outEdges[i], depEdge{dst: j, mask: mask})
				st.indegree[j]++
			}
		}
	}
}

// releaseEdges removes the out-edges of a finished (processed or discarded)
// region, pushing any newly-rooted regions into the priority queue.
func (st *state) releaseEdges(ri int) {
	for _, e := range st.outEdges[ri] {
		st.indegree[e.dst]--
		if st.indegree[e.dst] == 0 && !st.processed[e.dst] && !st.inQueue[e.dst] && st.pq != nil {
			st.pq.push(e.dst, st.csm(st.regions[e.dst]))
			st.inQueue[e.dst] = true
		}
	}
	st.outEdges[ri] = nil
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

func (h *csmHeap) push(region int, score float64) {
	heap.Push(h, csmItem{region: region, score: score, bucket: scoreBucket(score)})
}

// popBest removes and returns the top entry; ok is false when empty. The
// returned item carries the score the scheduler is acting on — possibly
// stale, which is exactly what a decision trace must report (recomputing
// would advance the clock).
func (h *csmHeap) popBest() (it csmItem, ok bool) {
	if h.Len() == 0 {
		return csmItem{}, false
	}
	return heap.Pop(h).(csmItem), true
}

// peekBucket returns the current top score bucket without removing it.
func (h *csmHeap) peekBucket() (int, bool) {
	if h.Len() == 0 {
		return 0, false
	}
	return h.items[0].bucket, true
}
