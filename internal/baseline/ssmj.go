package baseline

import (
	"sort"

	"caqe/internal/core"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/run"
	"caqe/internal/skyline"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// ssmj implements the Skyline-Sort-Merge-Join baseline [14]: each query is
// processed independently in priority order. Both inputs (the rows the
// join-group filter keeps, core.Survivors) are sorted on the
// join key and merged; each join-key group's results are first reduced to
// their group-local skyline, and the survivors stream into a global
// block-nested-loops window *in key order* — the algorithm cannot presort
// its output by a dominance-monotone score, so the global window pays
// BNL-style comparison counts (the paper reports ~20× CAQE's comparisons
// for it, §7.3). The skyline window is blocking: every result of a query is
// delivered when the query completes (Table 3: not progressive, no
// sharing). Input sort comparisons are charged as cheap coarse operations;
// dominance comparisons at full cost. The partitioning knobs do not apply.
func ssmj(w *workload.Workload, r, t *tuple.Relation, clock *metrics.Clock, rep *run.Report) error {
	rs, ts := core.Survivors(w, r, t, clock)
	for _, qi := range w.ByPriority() {
		q := w.Queries[qi]
		jc := w.JoinConds[q.JC]
		traceQueryDecision(rep, clock, qi)
		results := streamingSkylineJoin(jc, w.OutDims, q.Pref, rs[jc.LeftKey], ts[jc.RightKey], clock)
		now := clock.Now() / metrics.VirtualSecond
		for _, jr := range results {
			clock.CountEmit(1)
			rep.Emit(run.Emission{Query: qi, RID: jr.RID, TID: jr.TID, Out: jr.Out, Time: now})
		}
	}
	return nil
}

// streamingSkylineJoin merges the key-sorted inputs group by group, reduces
// each group to its local skyline, and maintains the global skyline window
// over the arrival stream with BNL semantics.
func streamingSkylineJoin(jc join.EquiJoin, fs []join.MapFunc, pref preference.Subspace,
	rs, ts []*tuple.Tuple, clock *metrics.Clock) []join.Result {

	rSorted := append([]*tuple.Tuple(nil), rs...)
	tSorted := append([]*tuple.Tuple(nil), ts...)
	sort.SliceStable(rSorted, func(i, j int) bool {
		return rSorted[i].Key(jc.LeftKey) < rSorted[j].Key(jc.LeftKey)
	})
	sort.SliceStable(tSorted, func(i, j int) bool {
		return tSorted[i].Key(jc.RightKey) < tSorted[j].Key(jc.RightKey)
	})
	if clock != nil {
		clock.CountCellOp(nLogN(len(rSorted)) + nLogN(len(tSorted)))
	}

	global := skyline.NewWindow[join.Result](pref, clock)
	i, j := 0, 0
	for i < len(rSorted) && j < len(tSorted) {
		if clock != nil {
			clock.CountJoinProbe(1)
		}
		rk := rSorted[i].Key(jc.LeftKey)
		tk := tSorted[j].Key(jc.RightKey)
		switch {
		case rk < tk:
			i++
		case rk > tk:
			j++
		default:
			i2 := i
			for i2 < len(rSorted) && rSorted[i2].Key(jc.LeftKey) == rk {
				i2++
			}
			j2 := j
			for j2 < len(tSorted) && tSorted[j2].Key(jc.RightKey) == tk {
				j2++
			}
			// The group's cross product, reduced to its group-local skyline.
			local := skyline.NewWindow[join.Result](pref, clock)
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if clock != nil {
						clock.CountJoinResult(1)
					}
					out := join.Project(fs, rSorted[a], tSorted[b])
					local.Insert(out, join.Result{RID: rSorted[a].ID, TID: tSorted[b].ID, Out: out})
				}
			}
			// Stream the survivors into the global window.
			for _, jr := range local.Items() {
				global.Insert(jr.Out, jr)
			}
			i, j = i2, j2
		}
	}
	return global.Items()
}

// nLogN returns n·⌈log₂n⌉ (n for n ≤ 1) for cost accounting: an upper
// bound on a comparison sort's work, not ⌈n·log₂n⌉ (n = 3 gives 6, not 5).
func nLogN(n int) int64 {
	if n <= 1 {
		return int64(n)
	}
	lg := 0
	for v := n - 1; v > 0; v >>= 1 {
		lg++
	}
	return int64(n) * int64(lg)
}
