package region

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"caqe/internal/contract"
	"caqe/internal/datagen"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/partition"
	"caqe/internal/preference"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// The three relations of Definition 8 and §5.3.2 in their direct form: the
// oracles that QueryDims.Pair is held to (TestRegionPairQuerySets), as the
// corner index is held to Pair (TestCornerRanksMatchPair).

// box is a region's box as the predicates read it: lower and upper bounds
// per output dimension.
type box struct{ lo, hi []float64 }

// fullyDominatesIn reports Definition 8 case (1): r's worst corner weakly
// dominates o's best corner in subspace v with at least one strict
// dimension, so every tuple of r dominates every tuple of o.
func fullyDominatesIn(v preference.Subspace, r, o box) bool {
	strict := false
	for _, k := range v {
		if r.hi[k] > o.lo[k] {
			return false
		}
		if r.hi[k] < o.lo[k] {
			strict = true
		}
	}
	return strict
}

// partiallyDominatesIn reports Definition 8 case (2): some tuple of r could
// dominate some tuple of o — r's best corner weakly dominates o's worst
// corner with a strict dimension — excluding full dominance.
func partiallyDominatesIn(v preference.Subspace, r, o box) bool {
	strict := false
	for _, k := range v {
		if r.lo[k] > o.hi[k] {
			return false
		}
		if r.lo[k] < o.hi[k] {
			strict = true
		}
	}
	return strict && !fullyDominatesIn(v, r, o)
}

// bestCornerDominates reports whether r's best corner strictly dominates
// o's best corner in v: the relation that orders the dependency-graph edges
// (§5.3.2).
func bestCornerDominates(v preference.Subspace, r, o box) bool {
	return preference.DominatesIn(v, r.lo, o.lo)
}

func testWorkload(nq, dims int) *workload.Workload {
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: nq,
		Dims:       dims,
		Priority:   workload.UniformPriority,
		NewContract: func(int) contract.Contract {
			return contract.C2()
		},
	})
	return w
}

func testData(t *testing.T, n, dims int, seed int64) (*tuple.Relation, *tuple.Relation, []*partition.Cell, []*partition.Cell) {
	t.Helper()
	r, tt, err := datagen.Pair(n, dims, datagen.Independent, []float64{0.05}, seed)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := partition.Partition(r, partition.DefaultOptions(n, 6))
	if err != nil {
		t.Fatal(err)
	}
	tc, err := partition.Partition(tt, partition.DefaultOptions(n, 6))
	if err != nil {
		t.Fatal(err)
	}
	return r, tt, rc, tc
}

func TestBuildSpaceRQLMatchesBruteForce(t *testing.T) {
	w := testWorkload(4, 3)
	_, _, rc, tc := testData(t, 200, 3, 1)
	s, err := BuildSpace(w, rc, tc, Options{GridResolution: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Regions must exist exactly for cell pairs with a shared join key
	// (all queries share JC0 in the benchmark workload), minus coarse-
	// skyline prunes — so every region's pair must share a key, and every
	// sharing pair must either appear or have been pruned for all queries.
	type pair struct{ a, b int }
	present := map[pair]*Region{}
	for i, reg := range s.Regions {
		present[pair{reg.RCell.ID, reg.TCell.ID}] = &s.Regions[i]
	}
	jc := w.JoinConds[0]
	for _, a := range rc {
		for _, b := range tc {
			shares := a.Sigs[jc.LeftKey].Intersects(b.Sigs[jc.RightKey], nil)
			reg := present[pair{a.ID, b.ID}]
			if reg != nil && !shares {
				t.Fatalf("region %v exists for non-joining cell pair", reg)
			}
			if reg != nil && reg.RQL == 0 {
				t.Fatalf("region %v has empty lineage", reg)
			}
		}
	}
}

// TestRegionBoundsContainJoinOutputs: every actual join result of a
// region's cell pair must fall inside the region's output box.
func TestRegionBoundsContainJoinOutputs(t *testing.T) {
	w := testWorkload(4, 3)
	_, _, rc, tc := testData(t, 200, 3, 2)
	s, err := BuildSpace(w, rc, tc, Options{GridResolution: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, reg := range s.Regions {
		lo, hi := s.LoRow(i), s.HiRow(i)
		results := new(join.Scratch).NestedLoop(w.JoinConds[0], w.OutDims, reg.RCell.Tuples, reg.TCell.Tuples, nil)
		for _, res := range results {
			for k := range res.Out {
				if res.Out[k] < lo[k]-1e-9 || res.Out[k] > hi[k]+1e-9 {
					t.Fatalf("output %v outside region box [%v, %v]", res.Out, lo, hi)
				}
			}
		}
	}
}

// TestCoarsePruneSound: a region pruned for a query must contain no tuple
// of that query's ground-truth skyline.
func TestCoarsePruneSound(t *testing.T) {
	w := testWorkload(4, 3)
	r, tt, rc, tc := testData(t, 250, 3, 3)
	s, err := BuildSpace(w, rc, tc, Options{GridResolution: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth per query over the full join.
	rs := make([]*tuple.Tuple, r.Len())
	for i := range rs {
		rs[i] = r.At(i)
	}
	ts := make([]*tuple.Tuple, tt.Len())
	for i := range ts {
		ts[i] = tt.At(i)
	}
	all := new(join.Scratch).NestedLoop(w.JoinConds[0], w.OutDims, rs, ts, nil)
	for qi, q := range w.Queries {
		var sky []join.Result
		for i, a := range all {
			dominated := false
			for j, b := range all {
				if i != j && preference.DominatesIn(q.Pref, b.Out, a.Out) {
					dominated = true
					break
				}
			}
			if !dominated {
				sky = append(sky, a)
			}
		}
		// Map each skyline result to its region; the region must be alive
		// for qi (it might have been pruned only for other queries).
		for _, res := range sky {
			found := false
			for _, reg := range s.Regions {
				if containsTuple(reg.RCell, res.RID) && containsTuple(reg.TCell, res.TID) && reg.Alive.Has(qi) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("query %d skyline result R%d,T%d lost to coarse pruning", qi, res.RID, res.TID)
			}
		}
	}
}

func containsTuple(c *partition.Cell, id int) bool {
	for _, tu := range c.Tuples {
		if tu.ID == id {
			return true
		}
	}
	return false
}

func TestRegionDominancePredicates(t *testing.T) {
	v := preference.NewSubspace(0, 1)
	a := box{lo: []float64{0, 0}, hi: []float64{1, 1}}
	b := box{lo: []float64{2, 2}, hi: []float64{3, 3}}
	c := box{lo: []float64{0.5, 0.5}, hi: []float64{2.5, 2.5}}
	if !fullyDominatesIn(v, a, b) {
		t.Error("a should fully dominate b")
	}
	if fullyDominatesIn(v, b, a) {
		t.Error("b must not dominate a")
	}
	if fullyDominatesIn(v, a, c) {
		t.Error("overlapping boxes cannot be fully dominated")
	}
	if !partiallyDominatesIn(v, a, c) {
		t.Error("a should partially dominate c")
	}
	if partiallyDominatesIn(v, a, b) {
		t.Error("full dominance must be excluded from partial")
	}
	if !bestCornerDominates(v, a, c) {
		t.Error("a's best corner dominates c's")
	}
	if bestCornerDominates(v, c, a) {
		t.Error("c's best corner must not dominate a's")
	}
}

func TestRegionDominanceEqualBoundary(t *testing.T) {
	v := preference.NewSubspace(0, 1)
	a := box{lo: []float64{0, 0}, hi: []float64{1, 1}}
	b := box{lo: []float64{1, 1}, hi: []float64{2, 2}}
	// Touching corners: weak dominance everywhere but no strict dimension
	// on the shared corner → still dominates (strict via interior).
	if fullyDominatesIn(v, a, b) {
		t.Error("u_a == l_b with no strict dimension must not fully dominate")
	}
	c := box{lo: []float64{1, 2}, hi: []float64{2, 3}}
	if !fullyDominatesIn(v, a, c) {
		t.Error("u_a ⪯ l_c with one strict dimension should dominate")
	}
}

// TestRegionPairQuerySets holds QueryDims.Pair's three readings to the
// per-query predicates they replace, on random boxes of 1–6 dimensions whose
// bounds tie often and include −0 and ±Inf, under random preferences of up
// to 11 queries, some slots rebound to a new preference on the way:
// full dominance on (a.Hi, b.Lo), best-corner dominance on (a.Lo, b.Lo), and
// "a.Lo weakly below b.Hi on every axis the query reads" on (a.Lo, b.Hi).
func TestRegionPairQuerySets(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	vals := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, 2, math.Inf(1)}
	randPref := func(nd int) preference.Subspace {
		for {
			if v := preference.SubspaceFromMask(uint64(rng.Intn(1 << uint(nd)))); len(v) > 0 {
				return v
			}
		}
	}
	for trial := 0; trial < 3000; trial++ {
		nd := 1 + rng.Intn(6)
		qs := make([]workload.Query, 1+rng.Intn(11))
		for qi := range qs {
			qs[qi].Pref = randPref(nd)
		}
		u := NewQueryDims(qs, nd)
		for n := rng.Intn(3); n > 0; n-- {
			qi := rng.Intn(len(qs))
			qs[qi].Pref = randPref(nd)
			u.Bind(qi, qs[qi].Pref)
		}
		mk := func() box {
			r := box{lo: make([]float64, nd), hi: make([]float64, nd)}
			for k := range r.lo {
				x, y := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
				r.lo[k], r.hi[k] = math.Min(x, y), math.Max(x, y)
			}
			return r
		}
		a, b := mk(), mk()
		fullNotWeak, fullStrict := u.Pair(a.hi, b.lo)
		bestNotWeak, bestStrict := u.Pair(a.lo, b.lo)
		reachNotWeak, _ := u.Pair(a.lo, b.hi)
		for qi, q := range qs {
			weakReach := true
			for _, k := range q.Pref {
				weakReach = weakReach && a.lo[k] <= b.hi[k]
			}
			for _, c := range []struct {
				name      string
				got, want bool
			}{
				{"full dominance", (fullStrict &^ fullNotWeak).Has(qi), fullyDominatesIn(q.Pref, a, b)},
				{"best-corner dominance", (bestStrict &^ bestNotWeak).Has(qi), bestCornerDominates(q.Pref, a, b)},
				{"Lo weakly below Hi", !reachNotWeak.Has(qi), weakReach},
			} {
				if c.got != c.want {
					t.Fatalf("trial %d, query %d %v: %s = %v, predicate %v (a %v, b %v)",
						trial, qi, q.Pref, c.name, c.got, c.want, a, b)
				}
			}
		}
	}
}

func TestCellCountPositive(t *testing.T) {
	w := testWorkload(3, 3)
	_, _, rc, tc := testData(t, 150, 3, 7)
	s, err := BuildSpace(w, rc, tc, Options{GridResolution: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := preference.NewSubspace(0, 1)
	for i, reg := range s.Regions {
		if n := s.CellCount(s.LoRow(i), s.HiRow(i), v); n < 1 {
			t.Fatalf("region %v has cell count %d", reg, n)
		}
	}
}

// dominatedFraction is the fraction of r's box in v that o's best corner
// dominates.
func dominatedFraction(v preference.Subspace, r, o box) float64 {
	return DominatedFraction(v, r.lo, r.hi, o.lo)
}

// TestBuiltinMaxMatchesMathMax: DominatedFraction takes the larger lower
// bound with the builtin max, which the compiler inlines, where math.Max is
// an assembly call on amd64. The two agree bit for bit on every pair of
// NaN, ±0, ±Inf and ordinary values but one: math.Max puts +Inf before
// NaN, the builtin NaN before +Inf. In DominatedFraction that pair makes
// the extent NaN too (r.Lo is NaN, or +Inf with r.Hi ≥ r.Lo), so the
// fraction is NaN either way; the second half checks the function against
// its math.Max form on every combination of those values.
func TestBuiltinMaxMatchesMathMax(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	vals := []float64{nan, inf, -inf, 0, negZero, 1, -1, 0.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for _, x := range vals {
		for _, y := range vals {
			got, want := max(x, y), math.Max(x, y)
			if (math.IsNaN(x) && y == inf) || (x == inf && math.IsNaN(y)) {
				if !math.IsNaN(got) || want != inf {
					t.Errorf("max(%g, %g) = %g, math.Max %g: want NaN and +Inf", x, y, got, want)
				}
				continue
			}
			if !same(got, want) {
				t.Errorf("max(%g, %g) = %g (bits %#x), math.Max %g (bits %#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}

	// DominatedFraction as it read with math.Max.
	withMathMax := func(r, o box) float64 {
		ext := r.hi[0] - r.lo[0]
		if ext <= 0 {
			if o.lo[0] <= r.lo[0] {
				return 1
			}
			return 0
		}
		covered := (r.hi[0] - math.Max(r.lo[0], o.lo[0])) / ext
		if covered <= 0 {
			return 0
		}
		return min(covered, 1)
	}
	v := preference.NewSubspace(0)
	for _, lo := range vals {
		for _, hi := range vals {
			for _, olo := range vals {
				r := box{lo: []float64{lo}, hi: []float64{hi}}
				o := box{lo: []float64{olo}}
				if got, want := dominatedFraction(v, r, o), withMathMax(r, o); !same(got, want) {
					t.Errorf("DominatedFraction on [%g, %g] by %g = %g, with math.Max %g", lo, hi, olo, got, want)
				}
			}
		}
	}
}

func TestDominatedFractionRange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v := preference.NewSubspace(0, 1)
	for i := 0; i < 500; i++ {
		mk := func() box {
			lo := []float64{rng.Float64() * 10, rng.Float64() * 10}
			hi := []float64{lo[0] + rng.Float64()*10, lo[1] + rng.Float64()*10}
			return box{lo: lo, hi: hi}
		}
		r, o := mk(), mk()
		f := dominatedFraction(v, r, o)
		if f < 0 || f > 1 {
			t.Fatalf("fraction %g outside [0,1]", f)
		}
		// Full dominance means the whole box is covered.
		if fullyDominatesIn(v, o, r) && f != 1 {
			t.Fatalf("fully dominated region has fraction %g", f)
		}
	}
}

func TestDominatedFractionDegenerate(t *testing.T) {
	v := preference.NewSubspace(0, 1)
	r := box{lo: []float64{5, 5}, hi: []float64{5, 5}} // a point
	better := box{lo: []float64{1, 1}, hi: []float64{2, 2}}
	worse := box{lo: []float64{7, 7}, hi: []float64{9, 9}}
	if f := dominatedFraction(v, r, better); f != 1 {
		t.Fatalf("point region below o.Lo: fraction %g", f)
	}
	if f := dominatedFraction(v, r, worse); f != 0 {
		t.Fatalf("point region above o.Lo: fraction %g", f)
	}
}

func TestBuildSpaceCounting(t *testing.T) {
	w := testWorkload(3, 3)
	_, _, rc, tc := testData(t, 150, 3, 9)
	clock := metrics.NewClock()
	s, err := BuildSpace(w, rc, tc, Options{GridResolution: 16}, clock)
	if err != nil {
		t.Fatal(err)
	}
	c := clock.Counters()
	if c.CellOps == 0 {
		t.Error("coarse join performed no counted cell operations")
	}
	total := len(s.Regions) + int(c.RegionsPruned)
	if total != len(rc)*len(tc) {
		t.Errorf("regions(%d) + pruned(%d) != cell pairs(%d)", len(s.Regions), c.RegionsPruned, len(rc)*len(tc))
	}
}

func TestBuildSpaceValidatesWorkload(t *testing.T) {
	w := &workload.Workload{} // invalid: no queries
	if _, err := BuildSpace(w, nil, nil, Options{}, nil); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestEmptySpaceGrid(t *testing.T) {
	w := testWorkload(3, 3)
	s, err := BuildSpace(w, nil, nil, Options{GridResolution: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Regions) != 0 {
		t.Fatalf("no cells but %d regions", len(s.Regions))
	}
	// Grid must still be usable.
	if len(s.GridStep) != 3 {
		t.Fatalf("GridStep on empty space = %v", s.GridStep)
	}
	for k, step := range s.GridStep {
		if !(step > 0) {
			t.Fatalf("GridStep[%d] on empty space = %g", k, step)
		}
	}
}

// TestRegionIDsSequentialAfterPrune: a region is its index, so once the
// coarse prune has compacted the list, with KeepPruned off and on, the pair
// index names every region at its new position and no other entry names
// one.
func TestRegionIDsSequentialAfterPrune(t *testing.T) {
	w := testWorkload(4, 3)
	r, tt, err := datagen.Pair(1000, 3, datagen.Independent, []float64{0.1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	var cells [2][]*partition.Cell
	for side, rel := range []*tuple.Relation{r, tt} {
		if cells[side], err = partition.Partition(rel, partition.DefaultOptions(rel.Len(), 24)); err != nil {
			t.Fatal(err)
		}
	}
	rc, tc := cells[0], cells[1]
	for _, keep := range []bool{false, true} {
		s, err := BuildSpace(w, rc, tc, Options{GridResolution: 16, KeepPruned: keep}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int32, len(rc)*len(tc))
		for i := range want {
			want[i] = -1
		}
		retired := 0
		for i, reg := range s.Regions {
			want[reg.RCell.ID*len(tc)+reg.TCell.ID] = int32(i)
			if reg.Alive == 0 {
				retired++
			}
		}
		if !slices.Equal(s.PairIndex(), want) {
			t.Fatalf("KeepPruned %v: pair index %v, want %v", keep, s.PairIndex(), want)
		}
		if keep && retired == 0 {
			t.Fatal("the prune retired no region: nothing was compacted")
		}
	}
}

// TestPaperExample16 checks the region dominance relations of the paper's
// Example 16 over its three output regions (dimensions d1..d4 are indices
// 0..3, min preferred):
//
//	R1[(6,8,8,4) (8,10,10,6)]  R2[(8,6,6,5) (10,8,8,7)]  R3[(7,5,4,1) (9,7,6,4)]
func TestPaperExample16(t *testing.T) {
	r1 := box{lo: []float64{6, 8, 8, 4}, hi: []float64{8, 10, 10, 6}}
	r2 := box{lo: []float64{8, 6, 6, 5}, hi: []float64{10, 8, 8, 7}}
	r3 := box{lo: []float64{7, 5, 4, 1}, hi: []float64{9, 7, 6, 4}}
	all := []box{r1, r2, r3}

	// nonDominated reports whether no other region fully dominates all[i].
	nonDominated := func(v preference.Subspace, i int) bool {
		for j, o := range all {
			if j != i && fullyDominatesIn(v, o, all[i]) {
				return false
			}
		}
		return true
	}

	// Level 0: R1 belongs to SKY_{d1}; R3 to SKY_{d2}, SKY_{d3}, SKY_{d4}.
	if !nonDominated(preference.NewSubspace(0), 0) {
		t.Error("R1 should be non-dominated in {d1}")
	}
	for _, k := range []int{1, 2, 3} {
		if !nonDominated(preference.NewSubspace(k), 2) {
			t.Errorf("R3 should be non-dominated in {d%d}", k+1)
		}
	}
	// Level 1: SKY_{d1,d2} contains R1 and R3 (Theorem 1 lifts their
	// level-0 membership).
	v12 := preference.NewSubspace(0, 1)
	if !nonDominated(v12, 0) || !nonDominated(v12, 2) {
		t.Error("R1 and R3 should be non-dominated in {d1,d2}")
	}
	// End state of the example: SKY_{d2,d3} = {R2, R3} — R1 is fully
	// dominated there by R3 (u3=(7,6) ≺ l1=(8,8)).
	v23 := preference.NewSubspace(1, 2)
	if !fullyDominatesIn(v23, r3, r1) {
		t.Error("R3 should fully dominate R1 in {d2,d3}")
	}
	if !nonDominated(v23, 1) || !nonDominated(v23, 2) {
		t.Error("SKY_{d2,d3} should retain R2 and R3")
	}
}

// TestPaperExample17DependencyDirection mirrors Figure 7 / Example 17:
// a region whose cells can completely dominate another region's cells must
// precede it — best-corner dominance gives the edge direction R2 → R1.
func TestPaperExample17DependencyDirection(t *testing.T) {
	// R2's best cells around (3,5); R1 lives up at (5,8)+.
	r2 := box{lo: []float64{3, 5}, hi: []float64{6, 8}}
	r1 := box{lo: []float64{5, 8}, hi: []float64{7, 11}}
	v := preference.NewSubspace(0, 1)
	if !bestCornerDominates(v, r2, r1) {
		t.Error("R2's best corner should dominate R1's (edge R2→R1)")
	}
	if bestCornerDominates(v, r1, r2) {
		t.Error("no reverse edge R1→R2")
	}
	if !partiallyDominatesIn(v, r2, r1) && !fullyDominatesIn(v, r2, r1) {
		t.Error("R2 should at least partially dominate R1")
	}
}

// TestFullDominanceTransitiveQuick: full region dominance within a fixed
// subspace must be transitive — the property coarsePrune's exactness rests
// on.
func TestFullDominanceTransitiveQuick(t *testing.T) {
	v := preference.NewSubspace(0, 1)
	check := func(raw [12]uint8) bool {
		mk := func(off int) box {
			lo := []float64{float64(raw[off] % 6), float64(raw[off+1] % 6)}
			hi := []float64{lo[0] + float64(raw[off+2]%3), lo[1] + float64(raw[off+3]%3)}
			return box{lo: lo, hi: hi}
		}
		a, b, c := mk(0), mk(4), mk(8)
		if fullyDominatesIn(v, a, b) && fullyDominatesIn(v, b, c) && !fullyDominatesIn(v, a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
