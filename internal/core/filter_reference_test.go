package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/datagen"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/partition"
	"caqe/internal/region"
	"caqe/internal/run"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// referenceJoinFilter is joinFilter as it read before its flat records: a
// closure sort of row indices that reads the relation, and one map from
// key value to row IDs per (side, key column). It makes the same
// comparisons in the same order, so every verdict, margin and count must
// match.
type referenceJoinFilter struct {
	w      *workload.Workload
	rels   [2]*tuple.Relation
	sides  [2]sideRule
	abs    [2]float64
	tau    float64
	keep   [2][]uint64
	sums   [2][]float64
	groups [2][]map[int64][]int
	cmps   int64
}

func newReferenceJoinFilter(w *workload.Workload, r, t *tuple.Relation) *referenceJoinFilter {
	f := &referenceJoinFilter{w: w, rels: [2]*tuple.Relation{r, t}}
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
			f.widen(side, rel.At(i))
		}
		if !rule.on {
			for i := range f.keep[side] {
				f.keep[side][i] = ^uint64(0)
			}
			continue
		}
		f.sums[side] = make([]float64, rel.Len())
		for i := range order {
			f.sums[side][i] = f.sum(rule, rel.At(i))
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
	return f
}

func (f *referenceJoinFilter) widen(side int, tp *tuple.Tuple) {
	for _, rw := range f.sides[side].reads {
		f.abs[side] = max(f.abs[side], math.Abs(tp.Attrs[rw.attr]))
	}
}

func (f *referenceJoinFilter) margin() float64 {
	m := 1.0
	for _, d := range f.w.OutDims {
		m = max(m, math.Abs(d.Bias)+float64(d.LeftW*f.abs[0])+float64(d.RightW*f.abs[1]))
	}
	return 16 * (math.Nextafter(m, math.Inf(1)) - m)
}

func (f *referenceJoinFilter) beats(rule *sideRule, y, x *tuple.Tuple) bool {
	for _, rw := range rule.reads {
		if !(rw.w*(x.Attrs[rw.attr]-y.Attrs[rw.attr]) > f.tau) {
			return false
		}
	}
	return true
}

func (f *referenceJoinFilter) sum(rule *sideRule, tp *tuple.Tuple) float64 {
	s := 0.0
	for _, rw := range rule.reads {
		s += tp.Attrs[rw.attr]
	}
	return s
}

func (f *referenceJoinFilter) compare(side, a, b int) int {
	switch sa, sb := f.sums[side][a], f.sums[side][b]; {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	}
	return a - b
}

func (f *referenceJoinFilter) beaten(side, k int, ids []int, x *tuple.Tuple, deleted map[int]bool) bool {
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

func (f *referenceJoinFilter) readmit(side, k int, keys []int64, deleted map[int]bool, back map[int]uint64) {
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

func (f *referenceJoinFilter) recheck(deleted [2]map[int]bool) [2]map[int]uint64 {
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

func (f *referenceJoinFilter) release(side int, ids []int, deleted map[int]bool) map[int]uint64 {
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

func (f *referenceJoinFilter) admit(side, id int, deleted [2]map[int]bool) (uint64, [2]map[int]uint64) {
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
		f.sums[side] = append(f.sums[side], f.sum(rule, x))
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

// filterCase is one random input of TestJoinFilterMatchesReference.
type filterCase struct {
	attrs, keys int
	huge        bool // magnitudes near the largest float: sums overflow to ±Inf
	off         int  // the side whose rule is off, or -1
}

// randomFilterRow draws one row: small integers, so sums tie across IDs,
// with −0 among them, or magnitudes whose sums overflow; key values in
// [-2, 2], so groups are shared and the signed order matters.
func randomFilterRow(rng *rand.Rand, c filterCase) ([]float64, []int64) {
	attrs := make([]float64, c.attrs)
	for a := range attrs {
		switch v := float64(rng.Intn(7) - 3); {
		case c.huge:
			attrs[a] = v * 0.3 * math.MaxFloat64
		case v == 0 && rng.Intn(2) == 0:
			attrs[a] = math.Copysign(0, -1)
		default:
			attrs[a] = v
		}
	}
	keys := make([]int64, c.keys)
	for k := range keys {
		keys[k] = int64(rng.Intn(5) - 2)
	}
	return attrs, keys
}

// randomFilterInput builds a workload and a pair of relations for c: some
// rows duplicate an earlier one.
func randomFilterInput(rng *rand.Rand, c filterCase) (*workload.Workload, [2]*tuple.Relation) {
	weights := []float64{0.25, 0.5, 1, 2}
	if c.huge {
		weights = weights[:2] // keeps the margin finite while sums overflow
	}
	w := &workload.Workload{}
	for d := range 1 + rng.Intn(3) {
		m := join.MapFunc{
			Name:     fmt.Sprintf("d%d", d),
			LeftAttr: rng.Intn(c.attrs), RightAttr: rng.Intn(c.attrs),
			LeftW: weights[rng.Intn(len(weights))], RightW: weights[rng.Intn(len(weights))],
			Bias: float64(rng.Intn(3)),
		}
		w.OutDims = append(w.OutDims, m)
	}
	switch c.off {
	case 0:
		w.OutDims = append(w.OutDims, join.MapFunc{Name: "t", LeftAttr: -1, RightAttr: 0, RightW: 1})
	case 1:
		w.OutDims = append(w.OutDims, join.MapFunc{Name: "r", LeftAttr: 0, RightAttr: 0, LeftW: 1})
	}
	for j := range 1 + rng.Intn(c.keys) {
		w.JoinConds = append(w.JoinConds, join.EquiJoin{Name: fmt.Sprintf("JC%d", j), LeftKey: rng.Intn(c.keys), RightKey: rng.Intn(c.keys)})
	}
	var rels [2]*tuple.Relation
	for side := range rels {
		schema := tuple.Schema{Name: []string{"R", "T"}[side]}
		for a := range c.attrs {
			schema.AttrNames = append(schema.AttrNames, fmt.Sprintf("a%d", a))
		}
		for k := range c.keys {
			schema.KeyNames = append(schema.KeyNames, fmt.Sprintf("k%d", k))
		}
		rels[side] = tuple.NewRelation(schema)
		for i := range rng.Intn(40) {
			if i > 0 && rng.Intn(5) == 0 {
				src := rels[side].At(rng.Intn(i))
				rels[side].MustAppend(slices.Clone(src.Attrs), slices.Clone(src.Keys))
				continue
			}
			rels[side].MustAppend(randomFilterRow(rng, c))
		}
	}
	return w, rels
}

// checkFilters fails unless f and ref hold the same verdicts, margin and
// comparison count.
func checkFilters(t *testing.T, label string, f *joinFilter, ref *referenceJoinFilter) {
	t.Helper()
	if f.cmps != ref.cmps {
		t.Fatalf("%s: cmps %d, reference %d", label, f.cmps, ref.cmps)
	}
	if math.Float64bits(f.tau) != math.Float64bits(ref.tau) {
		t.Fatalf("%s: tau %v, reference %v", label, f.tau, ref.tau)
	}
	for side := range f.keep {
		if !slices.Equal(f.keep[side], ref.keep[side]) {
			t.Fatalf("%s: side %d keep %x, reference %x", label, side, f.keep[side], ref.keep[side])
		}
	}
}

func checkBack(t *testing.T, label string, got, want map[int]uint64) {
	t.Helper()
	if !maps.Equal(got, want) {
		t.Fatalf("%s: back %v, reference %v", label, got, want)
	}
}

// TestJoinFilterMatchesReference runs the flat filter and the map-based
// reference over random relations through schedules of appends (some that
// widen the margin, some that bring a new key value), deletes of kept rows
// and full re-checks, and requires the same verdicts, margin, comparison
// count and re-admissions after every step.
func TestJoinFilterMatchesReference(t *testing.T) {
	if sumKey(math.Copysign(0, -1)) != sumKey(0) {
		t.Fatal("sumKey orders −0 apart from +0; compare ties them")
	}
	rng := rand.New(rand.NewSource(53))
	var seen struct{ tied, infinite, dropped, widened, opened, released int }
	for trial := range 400 {
		c := filterCase{attrs: 1 + rng.Intn(4), keys: 1 + rng.Intn(3), huge: trial%7 == 3, off: -1}
		if trial%5 == 4 {
			c.off = rng.Intn(2)
		}
		w, rels := randomFilterInput(rng, c)
		f := newJoinFilter(w, rels[0], rels[1], nil)
		ref := newReferenceJoinFilter(w, rels[0], rels[1])
		label := fmt.Sprintf("trial %d %+v", trial, c)
		checkFilters(t, label+" build", f, ref)
		for side := range f.sums {
			sums := slices.Clone(f.sums[side])
			slices.Sort(sums)
			for i := 1; i < len(sums); i++ {
				if sums[i] == sums[i-1] {
					seen.tied++
				}
			}
			if len(sums) > 0 && (math.IsInf(sums[0], -1) || math.IsInf(sums[len(sums)-1], 1)) {
				seen.infinite++
			}
			if f.sides[side].on && slices.Contains(f.keep[side], 0) {
				seen.dropped++
			}
		}
		deleted := [2]map[int]bool{{}, {}}
		for step := range 12 {
			side := rng.Intn(2)
			rel := rels[side]
			label := fmt.Sprintf("%s step %d side %d", label, step, side)
			switch op := rng.Intn(4); op {
			case 0, 1: // append: op 1 widens the margin or opens a key value
				attrs, keys := randomFilterRow(rng, c)
				if op == 1 && !c.huge && rng.Intn(2) == 0 {
					for a := range attrs {
						attrs[a] *= 1 << 20
					}
				} else if op == 1 {
					keys[rng.Intn(len(keys))] = int64(3 + rng.Intn(3))
					seen.opened++
				}
				rel.MustAppend(attrs, keys)
				id := rel.Len() - 1
				mask, back := f.admit(side, id, deleted)
				refMask, refBack := ref.admit(side, id, deleted)
				if mask != refMask {
					t.Fatalf("%s: admit mask %x, reference %x", label, mask, refMask)
				}
				if back[side] != nil {
					seen.widened++
				}
				for s := range back {
					checkBack(t, label, back[s], refBack[s])
				}
			case 2: // delete kept live rows
				var ids []int
				for id := range rel.Len() {
					if f.keep[side][id] != 0 && !deleted[side][id] && rng.Intn(3) == 0 {
						ids = append(ids, id)
					}
				}
				for _, id := range ids {
					deleted[side][id] = true
				}
				back := f.release(side, ids, deleted[side])
				checkBack(t, label, back, ref.release(side, ids, deleted[side]))
				seen.released += len(back)
				for _, id := range ids {
					for k := range rel.At(id).Keys {
						rel.At(id).Keys[k] = tombstoneFor(Table(side))
					}
				}
			case 3:
				back, refBack := f.recheck(deleted), ref.recheck(deleted)
				for s := range back {
					checkBack(t, label, back[s], refBack[s])
				}
			}
			checkFilters(t, label, f, ref)
		}
	}
	if seen.tied == 0 || seen.infinite == 0 || seen.dropped == 0 || seen.widened == 0 || seen.opened == 0 || seen.released == 0 {
		t.Fatalf("the schedules miss a case: %+v", seen)
	}
	t.Logf("%+v", seen)
}

// BenchmarkPlan times the plan's pieces on the four 2500-row independent
// pairs BenchmarkCoarsePlan uses: the join-group filter beside its
// reference, the k-d partition of both sides' survivors, the output space
// built over their cell pairs with its coarse prune, the Hi corner-rank
// index over the built space, and the whole plan through newState.
func BenchmarkPlan(b *testing.B) {
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: 11, Dims: 4, Priority: workload.HighDimsHigh,
		NewContract: func(int) contract.Contract { return contract.C2() },
	})
	var engines []*Engine
	var filters []*joinFilter
	var cells [][2][]*partition.Cell
	var spaces []*region.Space
	for i := int64(0); i < 4; i++ {
		r, tt, err := datagen.Pair(2500, 4, datagen.Independent, []float64{0.1}, 2014+10*i)
		if err != nil {
			b.Fatal(err)
		}
		e, err := New(w, r, tt, Options{})
		if err != nil {
			b.Fatal(err)
		}
		f := newJoinFilter(w, r, tt, nil)
		c, err := e.partition(f)
		if err != nil {
			b.Fatal(err)
		}
		_, space, _, err := e.plan(nil, false)
		if err != nil {
			b.Fatal(err)
		}
		engines, filters, cells, spaces = append(engines, e), append(filters, f), append(cells, c), append(spaces, space)
	}
	each := func(b *testing.B, pass func(i int)) {
		b.ResetTimer()
		for range b.N {
			for i := range engines {
				pass(i)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(engines)), "ns/plan")
	}
	b.Run("filter/csr", func(b *testing.B) {
		each(b, func(i int) { newJoinFilter(w, engines[i].r, engines[i].t, nil) })
	})
	b.Run("filter/reference", func(b *testing.B) {
		each(b, func(i int) { newReferenceJoinFilter(w, engines[i].r, engines[i].t) })
	})
	b.Run("partition", func(b *testing.B) {
		each(b, func(i int) {
			if _, err := engines[i].partition(filters[i]); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("space", func(b *testing.B) {
		each(b, func(i int) {
			opt := region.Options{GridResolution: engines[i].opt.GridResolution}
			if _, err := region.BuildSpace(w, cells[i][0], cells[i][1], opt, metrics.NewClock()); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("ranks", func(b *testing.B) {
		each(b, func(i int) {
			s := spaces[i]
			region.NewCornerRanks(len(s.Regions), len(w.OutDims), s.HiRow)
		})
	})
	b.Run("plan", func(b *testing.B) {
		each(b, func(i int) {
			e := engines[i]
			clock := metrics.NewClock()
			cuboid, space, filter, err := e.plan(clock, false)
			if err != nil {
				b.Fatal(err)
			}
			newState(e, clock, space, e.newShared(cuboid, space, clock), run.NewReport("CAQE", e.w, nil), filter)
		})
	})
}
