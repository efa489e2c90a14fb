package core

import (
	"math"
	"slices"
	"sort"

	"caqe/internal/metrics"
	"caqe/internal/region"
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
// every column. Where a side's rule is on, sums[side][id] is row id's sum
// over the attributes the mappings read and groups[side][k] holds key
// column k's groups.
type joinFilter struct {
	w      *workload.Workload
	rels   [2]*tuple.Relation
	sides  [2]sideRule
	abs    [2]float64 // largest |attribute| any mapping reads with positive weight, per side
	tau    float64
	keep   [2][]uint64
	sums   [2][]float64
	groups [2][]keyGroups
	walk   []float64 // rows' read attributes, back to back: readmit's scratch
	cmps   int64     // comparisons made, each one SkylineCmp
}

// keyGroups holds one key column's groups of one side: vals lists the
// distinct key values in ascending order, and groups[g] the IDs of value
// g's rows in (sum, ID) order, the order every check walks. The groups are
// built as capped slices of one array, so an insert copies its group.
type keyGroups struct {
	vals   []int64
	groups [][]int32
}

// file inserts row id at position pos of group i, opening the group for
// key value key first when it is not found.
func (g *keyGroups) file(i int, found bool, key int64, pos int, id int32) {
	if !found {
		g.vals = slices.Insert(g.vals, i, key)
		g.groups = slices.Insert(g.groups, i, nil)
	}
	g.groups[i] = slices.Insert(g.groups[i], pos, id)
}

// newJoinFilter runs the plan-time pass over both relations, charging each
// comparison to clock (nil charges nothing) as one SkylineCmp: every row
// starts dropped, and the re-check of every group decides it.
func newJoinFilter(w *workload.Workload, r, t *tuple.Relation, clock *metrics.Clock) *joinFilter {
	f := &joinFilter{w: w, rels: [2]*tuple.Relation{r, t}}
	var sc groupScratch
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
		n := rel.Len()
		f.keep[side] = make([]uint64, n)
		if rule.on {
			f.sums[side] = make([]float64, 0, n)
		}
		for i := range n {
			f.gather(side, rel.At(i)) // the partner's magnitude bounds M even where the rule is off
		}
		if !rule.on {
			for i := range f.keep[side] {
				f.keep[side][i] = ^uint64(0)
			}
			continue
		}
		f.groups[side] = make([]keyGroups, rel.Schema.NumKeys())
		f.group(side, &sc)
	}
	f.tau = f.margin()
	f.recheck([2]map[int]bool{})
	if clock != nil {
		clock.CountSkylineCmp(f.cmps)
	}
	return f
}

// gather files the sum of row tp's attributes the mappings read, where the
// side's rule is on, and raises the side's magnitude bound to cover them.
// Attributes are finite, so a plain > keeps the largest magnitude.
func (f *joinFilter) gather(side int, tp *tuple.Tuple) {
	rule := &f.sides[side]
	s := 0.0
	for _, rw := range rule.reads {
		v := tp.Attrs[rw.attr]
		if a := math.Abs(v); a > f.abs[side] {
			f.abs[side] = a
		}
		s += v
	}
	if rule.on {
		f.sums[side] = append(f.sums[side], s)
	}
}

// group builds the groups of every key column the side's rule reads. The
// rows are ordered by (sum, ID) once, by a stable radix sort of their sums'
// keys (sumKey) over the rows in ID order. No sum is NaN: attributes are
// finite, and a partial sum that overflows to ±Inf stays there as finite
// values are added. A stable sort by key value of that order then yields
// each column's groups in ascending key order, each in (sum, ID) order.
func (f *joinFilter) group(side int, sc *groupScratch) {
	rel, sums := f.rels[side], f.sums[side]
	n := len(sums)
	if cap(sc.order) < n {
		sc.keys, sc.col, sc.order = make([]uint64, n), make([]uint64, n), make([]int32, n)
	}
	keys, col, order, sorter := sc.keys[:n], sc.col[:n], sc.order[:n], &sc.sorter
	for i, s := range sums {
		keys[i], order[i] = sumKey(s), int32(i)
	}
	sorter.Sort(keys, order)
	for _, k := range f.sides[side].keys {
		for i := range col {
			col[i] = uint64(rel.At(i).Key(k)) ^ 1<<63 // signed order as unsigned
		}
		g := &f.groups[side][k]
		rows := slices.Clone(order)
		for j, id := range rows {
			keys[j] = col[id]
		}
		sorter.Sort(keys, rows)
		for j := 0; j < n; {
			e := j + 1
			for e < n && keys[e] == keys[j] {
				e++
			}
			g.vals = append(g.vals, int64(keys[j]^1<<63))
			g.groups = append(g.groups, rows[j:e:e])
			j = e
		}
	}
}

// groupScratch is group's working memory, shared by both sides.
type groupScratch struct {
	sorter    region.KeySorter
	keys, col []uint64
	order     []int32
}

// sumKey is a row sum's radix key: −0 ties +0, as compare has it.
func sumKey(s float64) uint64 { return region.FloatKey(s + 0) }

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

// compare orders two rows of one side by (sum, ID). Rounding is monotone,
// so a row's beater never has a larger sum; one that ties comes after the
// row when its ID is larger, and then the row is kept, which costs a join
// and nothing else.
func (f *joinFilter) compare(side int, a, b int32) int {
	switch sa, sb := f.sums[side][a], f.sums[side][b]; {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	}
	return int(a - b)
}

// readmit re-checks the dropped live rows of group g of key column k on one
// side, in (sum, ID) order, each against the kept live rows before it. A
// row none of them beats survives for k from now on and is recorded in
// back. Beating by the margin is transitive, so kept rows alone find a
// beater whenever a live one exists. The invariant every mutation keeps: a
// dropped live row is beaten, by the current margin, by a kept live row of
// its group. The walk copies the attributes of the kept live rows it has
// passed back to back, so each check scans them in (sum, ID) order.
func (f *joinFilter) readmit(side, k, g int, deleted map[int]bool, back map[int]uint64) {
	keep, bit := f.keep[side], uint64(1)<<uint(k)
	reads := f.sides[side].reads
	walk, m := f.walk[:0], 0
	for _, id := range f.groups[side][k].groups[g] {
		if len(deleted) > 0 && deleted[int(id)] {
			continue
		}
		walk = f.row(walk, side, id)
		if keep[id]&bit == 0 {
			if f.beatenIn(reads, walk, m) {
				walk = walk[:m*len(reads)]
				continue
			}
			keep[id] |= bit
			back[int(id)] |= bit
		}
		m++
	}
	f.walk = walk
}

// row appends the attributes of row id of one side that the mappings read
// to walk, in reads order.
func (f *joinFilter) row(walk []float64, side int, id int32) []float64 {
	tp := f.rels[side].At(int(id))
	for _, rw := range f.sides[side].reads {
		walk = append(walk, tp.Attrs[rw.attr])
	}
	return walk
}

// beatenIn reports whether one of the first m rows of rows, whose
// attributes it holds back to back in reads order, beats the row after
// them by the margin, counting each comparison.
func (f *joinFilter) beatenIn(reads []attrWeight, rows []float64, m int) bool {
	n := len(reads)
	xa := rows[m*n:]
	for i := range m {
		f.cmps++
		if beatsRow(reads, rows[i*n:i*n+n], xa, f.tau) {
			return true
		}
	}
	return false
}

// beatsRow reports whether row y beats row x by the margin tau on every
// attribute a mapping reads, given both rows' read attributes in reads
// order.
func beatsRow(reads []attrWeight, ya, xa []float64, tau float64) bool {
	ya, xa = ya[:len(reads)], xa[:len(reads)]
	for j, rw := range reads {
		if !(rw.w*(xa[j]-ya[j]) > tau) {
			return false
		}
	}
	return true
}

// recheck runs readmit over every group of both sides, in ascending key
// order, and returns the rows that came back per side, as row ID → the key
// columns they gained.
func (f *joinFilter) recheck(deleted [2]map[int]bool) [2]map[int]uint64 {
	back := [2]map[int]uint64{{}, {}}
	for side := range f.sides {
		if !f.sides[side].on {
			continue
		}
		for _, k := range f.sides[side].keys {
			for g := range f.groups[side][k].vals {
				f.readmit(side, k, g, deleted[side], back[side])
			}
		}
	}
	return back
}

// release re-checks the groups whose kept rows ids, of one side, are being
// deleted — marked in deleted, their keys not yet tombstoned — in ascending
// key order, and returns the rows that came back as recheck does.
func (f *joinFilter) release(side int, ids []int, deleted map[int]bool) map[int]uint64 {
	back := make(map[int]uint64)
	if !f.sides[side].on {
		return back
	}
	for _, k := range f.sides[side].keys {
		var gs []int
		for _, id := range ids {
			if f.keep[side][id]&(1<<uint(k)) != 0 {
				g, _ := slices.BinarySearch(f.groups[side][k].vals, f.rels[side].At(id).Key(k))
				gs = append(gs, g)
			}
		}
		slices.Sort(gs)
		for _, g := range slices.Compact(gs) {
			f.readmit(side, k, g, deleted, back)
		}
	}
	return back
}

// admit decides the verdict of row id, just appended to one side, against
// the kept live rows of its groups that come before it in (sum, ID) order,
// with readmit's comparator (beatsRow), and files the row in them. Each
// candidate's read attributes are copied into the walk's scratch after the
// row's own as it is compared, so the check stops at the first beater and
// copies no row past it. A margin the row widens leaves drops decided under
// the old one unproven, so every group of both sides is re-checked first;
// the rows that come back are returned as recheck returns them. An append
// drops no row already kept: its results may have been joined, and dropping
// it would mean retracting them.
func (f *joinFilter) admit(side, id int, deleted [2]map[int]bool) (uint64, [2]map[int]uint64) {
	var back [2]map[int]uint64
	old := f.tau
	x := f.rels[side].At(id)
	f.gather(side, x)
	if f.tau = f.margin(); !(f.tau <= old) {
		back = f.recheck(deleted)
	}
	rule, keep, gone := &f.sides[side], f.keep[side], deleted[side]
	mask := ^uint64(0)
	if rule.on {
		mask = 0
		f.walk = f.row(slices.Grow(f.walk[:0], 2*len(rule.reads)), side, int32(id))
		xa, n := f.walk, len(f.walk)
		for _, k := range rule.keys {
			g, bit := &f.groups[side][k], uint64(1)<<uint(k)
			key := x.Key(k)
			gi, found := slices.BinarySearch(g.vals, key)
			var ids []int32
			if found {
				ids = g.groups[gi]
			}
			pos := sort.Search(len(ids), func(p int) bool { return f.compare(side, ids[p], int32(id)) > 0 })
			mask |= bit
			for _, y := range ids[:pos] {
				if keep[y]&bit == 0 || len(gone) > 0 && gone[int(y)] {
					continue
				}
				ya := f.row(xa, side, y)[n:]
				f.cmps++
				if beatsRow(rule.reads, ya, xa, f.tau) {
					mask &^= bit
					break
				}
			}
			g.file(gi, found, key, pos, int32(id))
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
