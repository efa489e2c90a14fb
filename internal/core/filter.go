package core

import (
	"math"
	"slices"

	"caqe/internal/metrics"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// The join-group filter (DESIGN.md §3), an extension beyond the paper taken
// from the skyline-join papers of Bhattacharya et al.: when every output
// mapping reads side S with a positive weight, a row x of S that a live row
// y of S with the same value in key column k beats on every S attribute any
// mapping reads — by more than rounding can eat — is left out of every join
// on column k. For every partner t, (y, t) then strictly dominates (x, t)
// in every output dimension, so in every subspace any query, present or
// admitted later, can ask for: x contributes nothing.

// sideRule is the filter's rule for one relation.
type sideRule struct {
	on    bool
	reads []attrWeight // per mapping reading this side with a positive weight: the attribute, the weight
	keys  []int        // the key columns some join condition reads
}

type attrWeight struct {
	attr int
	w    float64
}

// joinFilter is the filter's state over one run: the rule of each side, the
// margin, and the verdict per row. keep[side][id] has bit k set when row id
// survives for key column k; a side whose rule is off keeps every row for
// every column. groups[side][k] lists, for each key value, the IDs of its
// rows in (sum, ID) order, the order every check walks; sums[side][id] is
// row id's sum over the attributes the mappings read.
type joinFilter struct {
	w      *workload.Workload
	rels   [2]*tuple.Relation
	sides  [2]sideRule
	abs    [2]float64 // largest |attribute| any mapping reads with positive weight, per side
	tau    float64
	keep   [2][]uint64
	sums   [2][]float64
	groups [2][]map[int64][]int
	cmps   int64 // comparisons made, each one SkylineCmp
}

// newJoinFilter runs the plan-time pass over both relations, charging each
// comparison to clock (nil charges nothing) as one SkylineCmp: every row
// starts dropped, and the re-check of every group decides it.
func newJoinFilter(w *workload.Workload, r, t *tuple.Relation, clock *metrics.Clock) *joinFilter {
	f := &joinFilter{w: w, rels: [2]*tuple.Relation{r, t}}
	for side, rel := range f.rels {
		rule := &f.sides[side]
		rule.on = true
		for _, m := range w.OutDims {
			attr, wt := m.LeftAttr, m.LeftW
			if side == 1 {
				attr, wt = m.RightAttr, m.RightW
			}
			if attr < 0 || wt <= 0 {
				rule.on = false
				continue
			}
			rule.reads = append(rule.reads, attrWeight{attr, wt})
		}
		for _, jc := range w.JoinConds {
			k := jc.LeftKey
			if side == 1 {
				k = jc.RightKey
			}
			if !slices.Contains(rule.keys, k) {
				rule.keys = append(rule.keys, k)
			}
		}
		slices.Sort(rule.keys)
		f.keep[side] = make([]uint64, rel.Len())
		f.groups[side] = make([]map[int64][]int, rel.Schema.NumKeys())
		order := make([]int, rel.Len())
		for i := range order {
			order[i] = i
			f.widen(side, rel.At(i)) // the partner's magnitude bounds M even where the rule is off
		}
		if !rule.on {
			for i := range f.keep[side] {
				f.keep[side][i] = ^uint64(0)
			}
			continue
		}
		f.sums[side] = make([]float64, rel.Len())
		for i := range order {
			f.sums[side][i] = rule.sum(rel.At(i))
		}
		slices.SortFunc(order, func(a, b int) int { return f.compare(side, a, b) })
		for _, k := range rule.keys {
			g := make(map[int64][]int)
			for _, i := range order {
				key := rel.At(i).Key(k)
				g[key] = append(g[key], i)
			}
			f.groups[side][k] = g
		}
	}
	f.tau = f.margin()
	f.recheck([2]map[int]bool{})
	if clock != nil {
		clock.CountSkylineCmp(f.cmps)
	}
	return f
}

// widen raises the side's magnitude bound to cover row tp.
func (f *joinFilter) widen(side int, tp *tuple.Tuple) {
	for _, rw := range f.sides[side].reads {
		f.abs[side] = max(f.abs[side], math.Abs(tp.Attrs[rw.attr]))
	}
}

// margin is the smallest weighted attribute gap the rule accepts as a beat:
// 16·ulp(M), where M = max over mappings of |Bias| + LeftW·A_R + RightW·A_T
// (floored at 1) bounds every intermediate of every mapping over both
// relations. Each of a mapping's at most four roundings is then off by at
// most ulp(M), so two evaluations sharing a partner differ from the exact
// difference by at most 8·ulp(M), and the computed gap w·(x_a − y_a)
// exceeding 16·ulp(M) leaves the exact one above that (DESIGN.md §3). An M
// that overflows gives a NaN margin, which no gap exceeds: nothing drops.
func (f *joinFilter) margin() float64 {
	m := 1.0
	for _, d := range f.w.OutDims {
		m = max(m, math.Abs(d.Bias)+float64(d.LeftW*f.abs[0])+float64(d.RightW*f.abs[1]))
	}
	return 16 * (math.Nextafter(m, math.Inf(1)) - m)
}

// beats reports whether row y beats row x of one side by the margin on
// every attribute a mapping reads.
func (f *joinFilter) beats(rule *sideRule, y, x *tuple.Tuple) bool {
	for _, rw := range rule.reads {
		if !(rw.w*(x.Attrs[rw.attr]-y.Attrs[rw.attr]) > f.tau) {
			return false
		}
	}
	return true
}

// sum is a row's sum over the attributes the mappings read.
func (rule *sideRule) sum(tp *tuple.Tuple) float64 {
	s := 0.0
	for _, rw := range rule.reads {
		s += tp.Attrs[rw.attr]
	}
	return s
}

// compare orders two rows of one side by (sum, ID). Rounding is monotone,
// so a row's beater never has a larger sum; one that ties comes after the
// row when its ID is larger, and then the row is kept, which costs a join
// and nothing else.
func (f *joinFilter) compare(side, a, b int) int {
	switch sa, sb := f.sums[side][a], f.sums[side][b]; {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	}
	return a - b
}

// beaten reports whether a live row among ids that survives for key column
// k beats x, counting each comparison.
func (f *joinFilter) beaten(side, k int, ids []int, x *tuple.Tuple, deleted map[int]bool) bool {
	rule, bit := &f.sides[side], uint64(1)<<uint(k)
	for _, id := range ids {
		if f.keep[side][id]&bit == 0 || deleted[id] {
			continue
		}
		f.cmps++
		if f.beats(rule, f.rels[side].At(id), x) {
			return true
		}
	}
	return false
}

// readmit re-checks the dropped live rows of the groups of the given values
// of key column k on one side, in ascending key order and within a group in
// (sum, ID) order, each against the kept live rows before it. A row none of
// them beats survives for k from now on and is recorded in back. Beating by
// the margin is transitive, so kept rows alone find a beater whenever a
// live one exists. The invariant every mutation keeps: a dropped live row
// is beaten, by the current margin, by a kept live row of its group.
func (f *joinFilter) readmit(side, k int, keys []int64, deleted map[int]bool, back map[int]uint64) {
	bit := uint64(1) << uint(k)
	slices.Sort(keys)
	for _, key := range slices.Compact(keys) {
		ids := f.groups[side][k][key]
		for pos, id := range ids {
			if f.keep[side][id]&bit != 0 || deleted[id] || f.beaten(side, k, ids[:pos], f.rels[side].At(id), deleted) {
				continue
			}
			f.keep[side][id] |= bit
			back[id] |= bit
		}
	}
}

// recheck runs readmit over every group of both sides and returns the rows
// that came back per side, as row ID → the key columns they gained.
func (f *joinFilter) recheck(deleted [2]map[int]bool) [2]map[int]uint64 {
	back := [2]map[int]uint64{{}, {}}
	for side := range f.sides {
		for _, k := range f.sides[side].keys {
			var keys []int64
			for key := range f.groups[side][k] {
				keys = append(keys, key)
			}
			f.readmit(side, k, keys, deleted[side], back[side])
		}
	}
	return back
}

// release re-checks the groups whose kept rows ids, of one side, are being
// deleted — marked in deleted, their keys not yet tombstoned — and returns
// the rows that came back as recheck does.
func (f *joinFilter) release(side int, ids []int, deleted map[int]bool) map[int]uint64 {
	back := make(map[int]uint64)
	if !f.sides[side].on {
		return back
	}
	for _, k := range f.sides[side].keys {
		var keys []int64
		for _, id := range ids {
			if f.keep[side][id]&(1<<uint(k)) != 0 {
				keys = append(keys, f.rels[side].At(id).Key(k))
			}
		}
		f.readmit(side, k, keys, deleted, back)
	}
	return back
}

// admit decides the verdict of row id, just appended to one side, against
// the kept live rows of its groups, and files the row in them. A margin the
// row widens leaves drops decided under the old one unproven, so every group
// of both sides is re-checked first; the rows that come back are returned as
// recheck returns them. An append drops no row already kept: its results
// may have been joined, and dropping it would mean retracting them.
func (f *joinFilter) admit(side, id int, deleted [2]map[int]bool) (uint64, [2]map[int]uint64) {
	var back [2]map[int]uint64
	old := f.tau
	x := f.rels[side].At(id)
	f.widen(side, x)
	if f.tau = f.margin(); !(f.tau <= old) {
		back = f.recheck(deleted)
	}
	rule := &f.sides[side]
	mask := ^uint64(0)
	if rule.on {
		f.sums[side] = append(f.sums[side], rule.sum(x))
		mask = 0
		for _, k := range rule.keys {
			g := f.groups[side][k]
			ids := g[x.Key(k)]
			pos, _ := slices.BinarySearchFunc(ids, id, func(a, b int) int { return f.compare(side, a, b) })
			if !f.beaten(side, k, ids[:pos], x, deleted[side]) {
				mask |= 1 << uint(k)
			}
			g[x.Key(k)] = slices.Insert(ids, pos, id)
		}
	}
	f.keep[side] = append(f.keep[side], mask)
	return mask, back
}

// Survivors returns the join inputs the join-group filter leaves: for each
// key column of r and of t that a join condition of w reads, the rows that
// survive for it, in relation order (nil for a column no condition reads).
// The filter's comparisons are charged to clock as SkylineCmps. It is how
// the strategies that join on their own — JFSL, SSMJ, TimeShared — join
// only what CAQE joins.
func Survivors(w *workload.Workload, r, t *tuple.Relation, clock *metrics.Clock) (rs, ts [][]*tuple.Tuple) {
	f := newJoinFilter(w, r, t, clock)
	var out [2][][]*tuple.Tuple
	for side, rel := range f.rels {
		out[side] = make([][]*tuple.Tuple, rel.Schema.NumKeys())
		for _, k := range f.sides[side].keys {
			var rows []*tuple.Tuple
			for i := range rel.Tuples {
				if f.keep[side][i]&(1<<uint(k)) != 0 {
					rows = append(rows, rel.At(i))
				}
			}
			out[side][k] = rows
		}
	}
	return out[0], out[1]
}

// survivors counts the rows of one side that survive for some key column.
func (f *joinFilter) survivors(side int) int {
	n := 0
	for _, mask := range f.keep[side] {
		if mask != 0 {
			n++
		}
	}
	return n
}

// kept counts, per key column of one side, the rows that survive for it.
func (f *joinFilter) kept(side int) []int {
	n := make([]int, f.rels[side].Schema.NumKeys())
	for _, mask := range f.keep[side] {
		for k := range n {
			if mask&(1<<uint(k)) != 0 {
				n[k]++
			}
		}
	}
	return n
}
