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

	kern := preference.NewKernel(pref)
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

	// Global window as skyline points; payload indexes the kept results.
	var kept []join.Result
	var window []skyline.Point

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
			// Materialize the group's cross product.
			var group []join.Result
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if clock != nil {
						clock.CountJoinResult(1)
					}
					group = append(group, join.Result{
						RID: rSorted[a].ID,
						TID: tSorted[b].ID,
						Out: join.Project(fs, rSorted[a], tSorted[b]),
					})
				}
			}
			// Group-local skyline prunes within the key group.
			pts := make([]skyline.Point, len(group))
			for g, jr := range group {
				pts[g] = skyline.Point{Vals: jr.Out, Payload: g}
			}
			local := skyline.BNL(pref, pts, clock)
			// Stream survivors into the global window (BNL insert).
			for _, lp := range local {
				dominated := false
				keepWin := window[:0]
				for _, wp := range window {
					if dominated {
						keepWin = append(keepWin, wp)
						continue
					}
					if clock != nil {
						clock.CountSkylineCmp(1)
					}
					switch kern.Compare(wp.Vals, lp.Vals) {
					case -1:
						dominated = true
						keepWin = append(keepWin, wp)
					case 1:
						// evicted
					default:
						keepWin = append(keepWin, wp)
					}
				}
				window = keepWin
				if !dominated {
					window = append(window, skyline.Point{Vals: lp.Vals, Payload: len(kept)})
					kept = append(kept, group[lp.Payload])
				}
			}
			i, j = i2, j2
		}
	}

	// Resolve the window back to results.
	out := make([]join.Result, 0, len(window))
	for _, wp := range window {
		out = append(out, kept[wp.Payload])
	}
	return out
}

// nLogN returns ceil(n·log2(n)) for cost accounting.
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
