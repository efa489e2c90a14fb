package core

import (
	"caqe/internal/join"
	"caqe/internal/skycube"
	"caqe/internal/tuple"
)

// The four stages of the region step, as traces (trace.KindOpBatch) and the
// explain tree name them.
const (
	opNamePartitionScan   = "PartitionScan"
	opNameSignatureJoin   = "SignatureJoin"
	opNameDominanceFilter = "DominanceFilter"
	opNameEmit            = "Emit"
)

// processRegion is Algorithm 1's tuple-level step for one scheduled region:
// join its cell pair under every condition some alive query uses (each cell's
// rows that survive the join-group filter for the condition's key column), insert the
// results into the shared skyline, retire the region (empty its Alive set),
// discard the regions its results dominate, release its dependency edges
// and emit what is now final for the queries it served. The data-order
// scheduler (S-JFSL) has no dependency graph and discards nothing. The order
// of the counted operations below is the determinism contract (DESIGN.md
// §13).
func (st *state) processRegion(ri int) {
	created := st.created[:0]
	for j, jc := range st.w.JoinConds {
		left, right := st.joinRows(ri, j)
		st.traceOpBatch(opNamePartitionScan, ri, len(left)*len(right))
		// Signature mask test: queries alive on the region that use the
		// condition, minus a condition whose cursor already covers the cells —
		// what lets late admissions and mutations reopen a region without
		// re-emitting.
		qmask := st.jcQueries[j] & st.space.Regions[ri].Alive
		if qmask == 0 || st.joinComplete(ri, j) {
			continue
		}
		cur := st.cursor(ri, j)
		cl, ct := cur.nr, cur.nt
		*cur = joinCursor{len(left), len(right)}
		// A fresh region joins as one full segment; a reopened one joins only
		// the pairs beyond its cursor: new-left × all-right, then old-left ×
		// new-right. A scratch's results die at its next call, so each segment
		// has its own.
		var segs [2][]join.Result
		for s, seg := range [2][2][]*tuple.Tuple{{left[cl:], right}, {left[:cl], right[ct:]}} {
			if len(seg[0]) != 0 && len(seg[1]) != 0 {
				segs[s] = st.js[s].NestedLoop(jc, st.w.OutDims, seg[0], seg[1], st.clock)
			}
		}
		if len(segs[0])+len(segs[1]) == 0 {
			continue
		}
		st.traceOpBatch(opNameSignatureJoin, ri, len(segs[0])+len(segs[1]))
		for _, results := range segs {
			for _, res := range results {
				payload := st.payloads.add(payloadInfo{rid: res.RID, tid: res.TID, jc: j, reg: ri, lineage: qmask})
				alive := st.shared.Insert(payload, res.Out, qmask)
				created = append(created, payload)
				for qi := alive.Next(0); qi >= 0; qi = alive.Next(qi + 1) {
					st.pending[qi] = append(st.pending[qi], payload)
				}
			}
		}
	}
	st.created = created[:0]

	served := st.live.finish(ri)
	st.clock.CountRegionDone()
	st.markFrontiersDirty(served)
	var killed skycube.QSet
	if !st.e.opt.DataOrderScheduling {
		killed = st.discardDominated(served, created)
		// Releasing the region's edges pushes newly-rooted regions into
		// the scheduler queue, and scoring them advances the clock, so it
		// sits between the discard pass and the emission sweep.
		st.releaseEdges(ri)
	}
	st.traceOpBatch(opNameDominanceFilter, ri, len(created))
	st.emitSafe(served | killed)
}
