package region

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/datagen"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/partition"
	"caqe/internal/preference"
	"caqe/internal/skycube"
	"caqe/internal/workload"
)

// TestBitsMatchesBools holds Next, Count, CountTo and UnsetTo to a plain
// walk over random sets of 1 to 200 indices.
func TestBitsMatchesBools(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(200)
		b := NewBits(n)
		in := make([]bool, n)
		for i := range in {
			if rng.Intn(3) == 0 {
				in[i] = true
				b.Set(i)
			}
		}
		if i := rng.Intn(n); in[i] {
			in[i] = false
			b.Unset(i)
		}
		count := 0
		for i := range in {
			if in[i] {
				count++
			}
			if b.Has(i) != in[i] || b.CountTo(i) != count {
				t.Fatalf("trial %d: index %d: Has %v CountTo %d, want %v %d", trial, i, b.Has(i), b.CountTo(i), in[i], count)
			}
			next := -1
			for j := i; j < n; j++ {
				if in[j] {
					next = j
					break
				}
			}
			if got := b.Next(i); got != next {
				t.Fatalf("trial %d: Next(%d) = %d, want %d", trial, i, got, next)
			}
		}
		if b.Count() != count || b.Next(len(b)*64) != -1 {
			t.Fatalf("trial %d: Count %d, want %d", trial, b.Count(), count)
		}
		cut := rng.Intn(n)
		b.UnsetTo(cut)
		for i := range in {
			if b.Has(i) != (in[i] && i > cut) {
				t.Fatalf("trial %d: after UnsetTo(%d), Has(%d) = %v", trial, cut, i, b.Has(i))
			}
		}
	}
}

// TestCountRangeMatchesBits holds CountRange to a count of Has over the
// range, for every range whose ends lie on or next to a word edge (and a few
// random ones) of random sets of up to 200 indices, empty sets and full ones
// among them.
func TestCountRangeMatchesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 60; trial++ {
		n := []int{1, 63, 64, 65, 128, 130, 200}[trial%7]
		b := NewBits(n)
		fill := []int{0, 1, 2, 3}[trial/7%4] // empty, sparse, dense, full
		for i := 0; i < n; i++ {
			if fill == 3 || fill > 0 && rng.Intn(4-fill) == 0 {
				b.Set(i)
			}
		}
		var ends []int
		for e := 0; e <= n; e += 64 {
			ends = append(ends, e-1, e, e+1)
		}
		ends = append(ends, n-1, n, rng.Intn(n+1), rng.Intn(n+1))
		for _, from := range ends {
			for _, to := range ends {
				if from < 0 || to < 0 || from > n || to > n {
					continue
				}
				want := 0
				for i := from; i < to; i++ {
					if b.Has(i) {
						want++
					}
				}
				if got := b.CountRange(from, to); got != want {
					t.Fatalf("trial %d (%d indices): CountRange(%d, %d) = %d, want %d", trial, n, from, to, got, want)
				}
			}
		}
	}
}

// TestNotBelowMatchesLoop holds NotBelow to the loop it replaces in the
// region discard: a member of within is kept unless its corner lies strictly
// below x[k] on some dimension dims[k]. Corner sets of m ∈ {1, 63, 64, 65,
// 130} regions tie the probe often and hold NaN, ±Inf and −0; probes hold
// them too, a NaN among them, and the preference may be empty, as may
// within. The checks are repeated after regions move.
func TestNotBelowMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	specials := []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0}
	draw := func() float64 {
		if rng.Intn(5) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return float64(rng.Intn(9)) / 2
	}
	sizes := []int{1, 63, 64, 65, 130}
	var kept, ruledOut, ties, nanProbes int
	for trial := 0; trial < 300; trial++ {
		nd := 1 + rng.Intn(6)
		m := sizes[trial%len(sizes)]
		corners := make([][]float64, m)
		for i := range corners {
			corners[i] = make([]float64, nd)
			for k := range corners[i] {
				corners[i][k] = draw()
			}
		}
		c := NewCornerRanks(m, nd, func(i int) []float64 { return corners[i] })
		within, dst := NewBits(m), NewBits(m)
		check := func(label string) {
			for n := 0; n < 6; n++ {
				dims := preference.SubspaceFromMask(uint64(rng.Intn(1 << uint(nd))))
				x := make([]float64, len(dims))
				for k := range x {
					x[k] = draw()
					if math.IsNaN(x[k]) {
						nanProbes++
					}
				}
				clear(within)
				if n > 0 {
					for i := 0; i < m; i++ {
						if rng.Intn(4) != 0 {
							within.Set(i)
						}
					}
				}
				for i := range dst {
					dst[i] = rng.Uint64() // NotBelow must overwrite every word
				}
				c.NotBelow(dst, within, dims, x)
				for i := 0; i < m; i++ {
					want := within.Has(i)
					for k, d := range dims {
						if corners[i][d] < x[k] {
							want = false
						} else if corners[i][d] == x[k] && within.Has(i) {
							ties++
						}
					}
					if dst.Has(i) != want {
						t.Fatalf("%s: region %d at %v, dims %v, probe %v: kept %v, want %v", label, i, corners[i], dims, x, dst.Has(i), want)
					}
					if want {
						kept++
					} else if within.Has(i) {
						ruledOut++
					}
				}
				if m%64 != 0 && dst[len(dst)-1]>>uint(m%64) != 0 {
					t.Fatalf("%s: bits set past region %d", label, m-1)
				}
			}
		}
		check(fmt.Sprintf("trial %d", trial))
		for n := 0; n < 3; n++ {
			i := rng.Intn(m)
			for k := range corners[i] {
				corners[i][k] = draw()
			}
			c.Move(i, corners[i])
			check(fmt.Sprintf("trial %d after move %d", trial, n))
		}
	}
	t.Logf("%d kept, %d ruled out, %d ties with the probe, %d NaN probe coordinates", kept, ruledOut, ties, nanProbes)
	if kept < 1000 || ruledOut < 1000 || ties < 1000 || nanProbes < 100 {
		t.Fatalf("too little coverage: %d kept, %d ruled out, %d ties, %d NaN probe coordinates", kept, ruledOut, ties, nanProbes)
	}
}

// TestCornerRanksMatchPair holds the corner index to QueryDims.Pair, the
// region-pair test it replaces in the coarse prune, the dependency graph
// and ProgCount's dominators. Corner sets of m ∈ {1, 63, 64, 65, 130}
// regions over 1 to 6 dimensions tie often, hold NaN, ±Inf and −0, and
// sometimes one value on every region of a dimension (a zero-extent
// dimension of the set); the queries' preferences may be empty. For random
// probes, each dimension's four sets must be the regions the comparison
// selects, and, for each query, Weak the regions Pair finds weakly
// dominating (the probe, or the probed corner), the OR of the strict sets
// over the preference Pair's strict set, and Dominant their meet, within a
// random subset. The checks are repeated after regions move, a NaN
// coordinate among the moves.
func TestCornerRanksMatchPair(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	specials := []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0}
	draw := func() float64 {
		if rng.Intn(5) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return float64(rng.Intn(9)) / 2
	}
	sizes := []int{1, 63, 64, 65, 130}
	var checks, weakHits, domHits, moves int
	for trial := 0; trial < 300; trial++ {
		nd := 1 + rng.Intn(6)
		m := sizes[trial%len(sizes)]
		corners := make([][]float64, m)
		for i := range corners {
			corners[i] = make([]float64, nd)
			for k := range corners[i] {
				corners[i][k] = draw()
			}
		}
		if rng.Intn(3) == 0 {
			k, v := rng.Intn(nd), draw()
			for i := range corners {
				corners[i][k] = v
			}
		}
		qs := make([]workload.Query, 1+rng.Intn(11))
		for qi := range qs {
			qs[qi].Pref = preference.SubspaceFromMask(uint64(rng.Intn(1 << uint(nd))))
		}
		u := NewQueryDims(qs, nd)
		c := NewCornerRanks(m, nd, func(i int) []float64 { return corners[i] })

		var p Probe
		le, lt, ge, gt := NewBits(m), NewBits(m), NewBits(m), NewBits(m)
		within, weak, dom, strict := NewBits(m), NewBits(m), NewBits(m), NewBits(m)
		check := func(label string) {
			for n := 0; n < 6; n++ {
				x := make([]float64, nd)
				for k := range x {
					x[k] = draw()
				}
				if n%2 == 1 {
					copy(x, corners[rng.Intn(m)])
				}
				clear(within)
				for i := 0; i < m; i++ {
					if rng.Intn(4) != 0 {
						within.Set(i)
					}
				}
				for k := 0; k < nd; k++ {
					c.below(k, x[k], le, lt)
					c.above(k, x[k], ge, gt)
					for i, a := range corners {
						v := a[k]
						if le.Has(i) != (v <= x[k]) || lt.Has(i) != (v < x[k]) || ge.Has(i) != (v >= x[k]) || gt.Has(i) != (v > x[k]) {
							t.Fatalf("%s: dimension %d, corner %v against %v: ≤ %v < %v ≥ %v > %v",
								label, k, v, x[k], le.Has(i), lt.Has(i), ge.Has(i), gt.Has(i))
						}
					}
				}
				for _, below := range []bool{true, false} {
					if below {
						p.Below(c, x)
					} else {
						p.Above(c, x)
					}
					for qi, q := range qs {
						p.Weak(weak, within, q.Pref)
						p.Dominant(dom, within, q.Pref)
						clear(strict)
						for _, k := range q.Pref {
							if below {
								c.below(k, x[k], le, lt)
							} else {
								c.above(k, x[k], le, lt)
							}
							for w := range strict {
								strict[w] |= lt[w]
							}
						}
						for i, a := range corners {
							notWeak, s := u.Pair(a, x)
							if !below {
								notWeak, s = u.Pair(x, a)
							}
							wantWeak := within.Has(i) && !notWeak.Has(qi)
							if weak.Has(i) != wantWeak || strict.Has(i) != s.Has(qi) || dom.Has(i) != (wantWeak && s.Has(qi)) {
								t.Fatalf("%s: below %v, query %d %v, corner %v, probe %v: weak %v strict %v dominant %v, Pair gives notWeak %v strict %v (within %v)",
									label, below, qi, q.Pref, a, x, weak.Has(i), strict.Has(i), dom.Has(i), notWeak.Has(qi), s.Has(qi), within.Has(i))
							}
							if wantWeak {
								weakHits++
							}
							if dom.Has(i) {
								domHits++
							}
							checks++
						}
					}
				}
			}
		}
		check(fmt.Sprintf("trial %d (m %d, d %d)", trial, m, nd))
		for n := rng.Intn(4); n > 0; n-- {
			i := rng.Intn(m)
			for k := range corners[i] {
				if rng.Intn(2) == 0 {
					corners[i][k] = draw()
				}
			}
			c.Move(i, corners[i])
			moves++
		}
		check(fmt.Sprintf("trial %d (m %d, d %d) after moves", trial, m, nd))
	}
	t.Logf("%d (probe, query, corner) checks: %d weak, %d dominant; %d moves", checks, weakHits, domHits, moves)
	if weakHits < checks/10 || domHits < checks/20 || moves < 300 {
		t.Fatal("too little coverage")
	}
}

// referenceCoarsePrune is coarsePrune as it read before the corner index:
// every region against every other whose lineage meets its own, one
// QueryDims.Pair per pair, until the region's Alive set is empty.
func (s *Space) referenceCoarsePrune(clock *metrics.Clock, keepPruned bool) {
	uses := NewQueryDims(s.W.Queries, len(s.W.OutDims))
	for _, r := range s.Regions {
		for _, o := range s.Regions {
			if r.Alive == 0 {
				break
			}
			if o == r || o.RQL&r.RQL == 0 {
				continue
			}
			if clock != nil {
				clock.CountCellOp(1)
			}
			notWeak, strict := uses.Pair(o.Hi, r.Lo)
			r.Alive &^= o.RQL & strict &^ notWeak
		}
	}
	var pruned []*Region
	kept := s.Regions[:0]
	for _, r := range s.Regions {
		if r.Alive != 0 {
			r.ID = len(kept)
			kept = append(kept, r)
			continue
		}
		if clock != nil {
			clock.CountRegionPruned()
		}
		if keepPruned {
			pruned = append(pruned, r)
		} else {
			delete(s.byPair, [2]int{r.RCell.ID, r.TCell.ID})
		}
	}
	for _, r := range pruned {
		r.ID = len(kept)
		kept = append(kept, r)
	}
	s.Regions = kept
}

// cloneSpace copies a space's region list and pair index; cells and bounds
// are shared, since pruning writes neither.
func cloneSpace(s *Space) *Space {
	c := *s
	c.Regions = make([]*Region, len(s.Regions))
	c.byPair = make(map[[2]int]*Region, len(s.byPair))
	for i, r := range s.Regions {
		cp := *r
		c.Regions[i] = &cp
		c.byPair[[2]int{r.RCell.ID, r.TCell.ID}] = &cp
	}
	return &c
}

// unprunedSpace is BuildSpace up to its coarse prune: the regions of every
// cell pair that passes a condition some query uses, Alive their lineage.
func unprunedSpace(w *workload.Workload, rcells, tcells []*partition.Cell) *Space {
	s := &Space{W: w, RCells: rcells, TCells: tcells, byPair: make(map[[2]int]*Region)}
	for j := range w.JoinConds {
		if w.QueriesWithJC(j) != 0 {
			s.TestedJC |= 1 << uint(j)
		}
	}
	for _, rc := range rcells {
		for _, tc := range tcells {
			if reg := s.joinPair(rc, tc, s.TestedJC, nil); reg != nil {
				for j := range w.JoinConds {
					if reg.JCPass&(1<<uint(j)) != 0 {
						reg.RQL |= w.QueriesWithJC(j)
					}
				}
				reg.Alive = reg.RQL
			}
		}
	}
	return s
}

// TestCoarsePruneMatchesReference: on random plans and on plans joined from
// generated data, coarsePrune leaves the reference's regions in the
// reference's order — Alive and lineage, IDs, the pair index — and charges
// the same cell operations and pruned regions, with KeepPruned on and off.
// The random plans' bounds tie often and hold NaN, ±Inf and −0, some
// dimensions have no extent, and every lineage is a random non-empty set of
// up to 8 queries, so regions both die for every query (the reference loop
// stops early) and survive for some.
func TestCoarsePruneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	specials := []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0}
	var spaces []*Space
	for trial := 0; trial < 400; trial++ {
		nd, nq := 1+rng.Intn(6), 1+rng.Intn(8)
		w := &workload.Workload{OutDims: make([]join.MapFunc, nd), Queries: make([]workload.Query, nq)}
		for qi := range w.Queries {
			for len(w.Queries[qi].Pref) == 0 {
				w.Queries[qi].Pref = preference.SubspaceFromMask(uint64(rng.Intn(1 << uint(nd))))
			}
		}
		s := &Space{W: w, byPair: make(map[[2]int]*Region)}
		for i, m := 0, 1+rng.Intn(140); i < m; i++ {
			r := &Region{ID: i, RCell: &partition.Cell{ID: i / 12}, TCell: &partition.Cell{ID: i % 12},
				Lo: make([]float64, nd), Hi: make([]float64, nd)}
			for k := range r.Lo {
				if rng.Intn(12) == 0 {
					r.Lo[k] = specials[rng.Intn(len(specials))]
				} else {
					r.Lo[k] = float64(rng.Intn(10))
				}
				r.Hi[k] = r.Lo[k]
				if rng.Intn(3) != 0 { // else no extent
					r.Hi[k] += float64(1 + rng.Intn(3))
				}
			}
			r.RQL = 1 + skycube.QSet(rng.Intn(1<<uint(nq)-1))
			r.Alive = r.RQL
			s.Regions = append(s.Regions, r)
			s.byPair[[2]int{r.RCell.ID, r.TCell.ID}] = r
		}
		spaces = append(spaces, s)
	}
	for seed := int64(0); seed < 6; seed++ {
		nd := 3 + int(seed%2)
		w := testWorkload(4, nd)
		_, _, rcells, tcells := testData(t, 300, nd, seed)
		spaces = append(spaces, unprunedSpace(w, rcells, tcells))
	}

	var allDead, someAlive, pruned int
	for si, s := range spaces {
		for _, keep := range []bool{false, true} {
			label := fmt.Sprintf("space %d (%d regions), KeepPruned %v", si, len(s.Regions), keep)
			ref, got := cloneSpace(s), cloneSpace(s)
			refClock, gotClock := metrics.NewClock(), metrics.NewClock()
			ref.referenceCoarsePrune(refClock, keep)
			got.coarsePrune(gotClock, keep)
			if refClock.Counters() != gotClock.Counters() {
				t.Fatalf("%s: counters %+v, reference %+v", label, gotClock.Counters(), refClock.Counters())
			}
			if len(got.Regions) != len(ref.Regions) || len(got.byPair) != len(ref.byPair) {
				t.Fatalf("%s: %d regions, %d indexed, reference %d, %d", label, len(got.Regions), len(got.byPair), len(ref.Regions), len(ref.byPair))
			}
			for i, r := range got.Regions {
				o := ref.Regions[i]
				if r.ID != o.ID || r.RCell != o.RCell || r.TCell != o.TCell || r.Alive != o.Alive || r.RQL != o.RQL {
					t.Fatalf("%s: position %d holds %v (pair %d,%d), reference %v (pair %d,%d)",
						label, i, r, r.RCell.ID, r.TCell.ID, o, o.RCell.ID, o.TCell.ID)
				}
				if key := [2]int{r.RCell.ID, r.TCell.ID}; (got.byPair[key] == r) != (ref.byPair[key] == o) {
					t.Fatalf("%s: pair %v indexed %v, reference %v", label, key, got.byPair[key] == r, ref.byPair[key] == o)
				}
			}
			if keep {
				continue
			}
			for _, r := range s.Regions {
				switch o := ref.byPair[[2]int{r.RCell.ID, r.TCell.ID}]; {
				case o == nil:
					allDead++
				case o.Alive != r.RQL:
					someAlive++
				}
			}
			pruned += int(refClock.Counters().RegionsPruned)
		}
	}
	t.Logf("%d spaces: %d regions died for every query, %d survived for some but not all", len(spaces), allDead, someAlive)
	if allDead < 1000 || someAlive < 1000 || pruned != allDead {
		t.Fatalf("too little coverage: %d dead, %d partly alive, %d pruned", allDead, someAlive, pruned)
	}
}

// BenchmarkCoarsePlan times the coarse prune on plans shaped like the
// benchmark's batch-indep workload: four 2500-row independent pairs at
// σ = 0.1, 24 cells a side, under its 11-query lattice (about 576 regions
// each). One op prunes a fresh copy of every plan; ns/plan is the mean per
// plan, the copy included. "index" is coarsePrune, "reference" the
// region-pair loop the test compares it with. internal/core's
// BenchmarkCoarsePlan times the dependency graph and ProgCount's dominators.
func BenchmarkCoarsePlan(b *testing.B) {
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: 11, Dims: 4, Priority: workload.HighDimsHigh,
		NewContract: func(int) contract.Contract { return contract.C2() },
	})
	var plans []*Space
	for i := int64(0); i < 4; i++ {
		r, tt, err := datagen.Pair(2500, 4, datagen.Independent, []float64{0.1}, 2014+10*i)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := partition.Partition(r, partition.DefaultOptions(r.Len(), 24))
		if err != nil {
			b.Fatal(err)
		}
		tc, err := partition.Partition(tt, partition.DefaultOptions(tt.Len(), 24))
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, unprunedSpace(w, rc, tc))
	}
	run := func(b *testing.B, prune func(s *Space)) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range plans {
				prune(cloneSpace(s))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(plans)), "ns/plan")
	}
	b.Run("prune/index", func(b *testing.B) { run(b, func(s *Space) { s.coarsePrune(nil, false) }) })
	b.Run("prune/reference", func(b *testing.B) { run(b, func(s *Space) { s.referenceCoarsePrune(nil, false) }) })
}
