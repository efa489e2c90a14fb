package core

import (
	"container/heap"
	"math"
	"slices"

	"caqe/internal/region"
	"caqe/internal/skycube"
)

// liveness owns the one fact Algorithm 1 turns on for every region: the
// queries it is still alive for, an empty Alive set marking a region done
// (DESIGN.md §13). Its methods are the only writes to that fact's records:
// each region's Alive set, its transpose per query, the region's place in
// the CSM queue, and every best corner, in a flat table and in an index.
// Each returns what changed, so callers release edges, mark frontiers,
// count and trace.
type liveness struct {
	sets   []region.Bits       // per query: the regions live for it
	pq     csmHeap             // the CSM queue; a done region's entries are stale
	queued []bool              // per region: its latest entry in pq is current; only a live region's is
	nd     int                 // output dimensions: the width of a row of lo
	lo     []float64           // region-major: each region's best corner, one row of nd values
	index  *region.CornerRanks // nil after the plan grew, until the next use rebuilds it
}

// newLiveness takes over the Alive sets and best corners of a plan's
// regions over nd output dimensions for nq queries.
func newLiveness(regions []*region.Region, nd, nq int) liveness {
	lv := liveness{nd: nd}
	lv.grow(regions, nq)
	for _, r := range regions {
		lv.revive(r, r.Alive)
	}
	return lv
}

// grow extends the records over the plan's regions and nq query slots. A
// region the plan gains is born done, appends its best corner to the table
// and drops the corner index.
func (lv *liveness) grow(regions []*region.Region, nq int) {
	n := len(regions)
	if n > len(lv.queued) {
		lv.lo = slices.Grow(lv.lo, (n-len(lv.queued))*lv.nd)
		for _, r := range regions[len(lv.queued):] {
			lv.lo = append(lv.lo, r.Lo...)
		}
		lv.queued = append(lv.queued, make([]bool, n-len(lv.queued))...)
		lv.index = nil
	}
	for qi, set := range lv.sets {
		lv.sets[qi] = append(set, make(region.Bits, (n+63)/64-len(set))...)
	}
	for len(lv.sets) < nq {
		lv.sets = append(lv.sets, region.NewBits(n))
	}
}

// kill takes the queries qs, for which region r is live, out of its Alive
// set and reports whether the region is now done, its queue entry stale.
func (lv *liveness) kill(r *region.Region, qs skycube.QSet) bool {
	r.Alive &^= qs
	for qi := qs.Next(0); qi >= 0; qi = qs.Next(qi + 1) {
		lv.sets[qi].Unset(r.ID)
	}
	lv.queued[r.ID] = lv.queued[r.ID] && r.Alive != 0
	return r.Alive == 0
}

// finish marks a processed region done and returns the queries it served.
func (lv *liveness) finish(r *region.Region) skycube.QSet {
	served := r.Alive
	lv.kill(r, served)
	return served
}

// revive makes region r live for the queries qs and reports whether it was
// done: it then needs a queue entry.
func (lv *liveness) revive(r *region.Region, qs skycube.QSet) bool {
	done := r.Alive == 0
	r.Alive |= qs
	for qi := qs.Next(0); qi >= 0; qi = qs.Next(qi + 1) {
		lv.sets[qi].Set(r.ID)
	}
	return done
}

// push queues live region ri under score. It is heap.Push without boxing
// the entry in an interface, so it allocates nothing once the queue grew.
func (lv *liveness) push(ri int, score float64) {
	lv.pq.items = append(lv.pq.items, csmItem{region: ri, score: score, bucket: scoreBucket(score)})
	heap.Fix(&lv.pq, len(lv.pq.items)-1)
	lv.queued[ri] = true
}

// pop takes the best entry off the queue, as heap.Pop does without the
// interface; ok is false when it is empty. The entry carries the score the
// scheduler acts on, possibly stale: what a decision trace must report.
func (lv *liveness) pop() (it csmItem, ok bool) {
	h := &lv.pq
	n := len(h.items) - 1
	if n < 0 {
		return csmItem{}, false
	}
	h.Swap(0, n)
	it, h.items = h.items[n], h.items[:n]
	heap.Fix(h, 0)
	lv.queued[it.region] = false
	return it, true
}

// moveCorner follows region r's best corner, recomputed in place: its row
// of the table is rewritten and the index re-ranks it.
func (lv *liveness) moveCorner(r *region.Region) {
	copy(lv.corner(r.ID), r.Lo)
	if lv.index != nil {
		lv.index.Move(r.ID, r.Lo)
	}
}

// corner returns region i's row of the corner table.
func (lv *liveness) corner(i int) []float64 { return lv.lo[i*lv.nd : (i+1)*lv.nd] }

// corners returns the index of every region's best corner.
func (lv *liveness) corners() *region.CornerRanks {
	if lv.index == nil {
		lv.index = region.NewCornerRanks(len(lv.queued), lv.nd, lv.corner)
	}
	return lv.index
}

// csmHeap is a max-heap of (region, score) used as Algorithm 1's inverted
// priority queue. Entries may be stale; callers skip done regions and
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
