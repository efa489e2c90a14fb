package core

import (
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
// best corner R_i's weakly dominates, strictly on one dimension), each query of
// R_i.Alive adds the regions live for it that the probe finds Dominant. The
// charge is one cell-level operation per pair i < j whose Alive sets meet,
// as testing pair by pair would make (DESIGN.md §13). The data-order scheduler
// builds no graph.
func (st *state) buildDepGraph() {
	m := len(st.space.Regions)
	st.indegree = make([]int, m)
	st.depWords = (m + 63) / 64
	st.depRows = nil
	if st.e.opt.DataOrderScheduling {
		return
	}
	st.depRows = make([]uint64, m*st.depWords)
	ranks := st.live.corners()
	meet, serving := st.scratchSets()
	var charged int64
	for i, r := range st.space.Regions {
		if r.Alive == 0 {
			continue
		}
		st.probe.Above(ranks, st.space.LoRow(i))
		row := st.edgeRow(i)
		clear(serving)
		for qi := r.Alive.Next(0); qi >= 0; qi = r.Alive.Next(qi + 1) {
			live := st.live.sets[qi]
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
			if st.indegree[j] == 0 && st.space.Regions[j].Alive != 0 && !st.live.queued[j] {
				st.live.push(j, st.csm(j))
			}
		}
	}
	clear(row)
}
