package skycube

import (
	"math/rand"
	"sort"
	"testing"

	"caqe/internal/metrics"
	"caqe/internal/preference"
)

// naiveQuerySkyline computes query qi's skyline over the points whose
// lineage includes qi — the oracle for SharedSkyline.
func naiveQuerySkyline(pref preference.Subspace, pts [][]float64, lineages []QSet, qi int) []int {
	var out []int
	for i := range pts {
		if !lineages[i].Has(qi) {
			continue
		}
		dominated := false
		for j := range pts {
			if i == j || !lineages[j].Has(qi) {
				continue
			}
			if preference.DominatesIn(pref, pts[j], pts[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSharedSkylineMatchesNaive is the central property test: for random
// workloads, points and lineages (including ties from small domains), the
// shared cuboid state must report exactly the per-query skylines a naive
// independent evaluation produces — in any insertion order. Spaces run up
// to 6 dimensions, and a trial in 5 or 6 draws its first preference over all
// of them, so nodes too wide for preference.Lanes compare through the kernel.
func TestSharedSkylineMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		d := 3 + rng.Intn(4)
		nq := 1 + rng.Intn(4)
		prefs := make([]preference.Subspace, nq)
		for i := range prefs {
			var dims []int
			if i == 0 && d >= 5 {
				dims = rng.Perm(d)
			}
			for len(dims) == 0 {
				dims = dims[:0]
				for k := 0; k < d; k++ {
					if rng.Intn(2) == 1 {
						dims = append(dims, k)
					}
				}
			}
			prefs[i] = preference.NewSubspace(dims...)
		}
		c, err := BuildCuboid(prefs)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSharedSkyline(c, nil)

		n := 5 + rng.Intn(60)
		domain := 3 + rng.Intn(8) // small: plenty of ties (no DVA)
		pts := make([][]float64, n)
		lineages := make([]QSet, n)
		for i := range pts {
			p := make([]float64, d)
			for k := range p {
				p[k] = float64(rng.Intn(domain))
			}
			pts[i] = p
			var l QSet
			for l == 0 {
				for q := 0; q < nq; q++ {
					if rng.Intn(2) == 1 {
						l = l.Add(q)
					}
				}
			}
			lineages[i] = l
			s.Insert(i, p, l)
		}
		for qi := 0; qi < nq; qi++ {
			want := naiveQuerySkyline(prefs[qi], pts, lineages, qi)
			got := s.Candidates(qi)
			if !sameInts(want, got) {
				t.Fatalf("trial %d query %d (pref %v):\n got %v\nwant %v",
					trial, qi, prefs[qi], got, want)
			}
			for _, p := range want {
				if !s.IsCandidate(p, qi) {
					t.Fatalf("IsCandidate(%d, %d) = false", p, qi)
				}
			}
		}

		// The delete repair: a third of the points leave, a few survivors gain
		// queries, and re-settling only those plus what a removed entry
		// dominated — in its node's subspace, for a query it was still alive
		// for — must leave exactly the skylines of the survivors.
		var removed []Removed
		for i := range pts {
			if rng.Intn(3) == 0 {
				removed = s.Remove(i, removed)
				lineages[i] = 0
			}
		}
		for i := range pts {
			if lineages[i] == 0 {
				continue
			}
			rests := false
			for _, rm := range removed {
				if lineages[i]&rm.Alive != 0 && rm.Kern.Dominates(rm.Point, pts[i]) {
					rests = true
					break
				}
			}
			grown := lineages[i]
			if rng.Intn(8) == 0 {
				grown = grown.Add(rng.Intn(nq))
			}
			if rests || grown != lineages[i] {
				lineages[i] = grown
				s.Resettle(i, grown)
			}
		}
		for qi := 0; qi < nq; qi++ {
			if want, got := naiveQuerySkyline(prefs[qi], pts, lineages, qi), s.Candidates(qi); !sameInts(want, got) {
				t.Fatalf("trial %d query %d (pref %v) after the repair:\n got %v\nwant %v", trial, qi, prefs[qi], got, want)
			}
		}
	}
}

// TestSharedSkylineSavesComparisons verifies the sharing claim of §4.1: on
// a multi-query workload with overlapping preferences and distinct values,
// the shared cuboid performs fewer dominance comparisons than evaluating
// each query's skyline independently (each with its own BNL-style window).
func TestSharedSkylineSavesComparisons(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	prefs := []preference.Subspace{
		preference.NewSubspace(0, 1),
		preference.NewSubspace(0, 1, 2),
		preference.NewSubspace(1, 2),
		preference.NewSubspace(1, 2, 3),
	}
	c, err := BuildCuboid(prefs)
	if err != nil {
		t.Fatal(err)
	}

	const n = 400
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, 4)
		for k := range p {
			p[k] = rng.Float64() * 100 // continuous: effectively distinct
		}
		pts[i] = p
	}
	all := QSet(0)
	for q := range prefs {
		all = all.Add(q)
	}

	sharedClock := metrics.NewClock()
	s := NewSharedSkyline(c, sharedClock)
	for i, p := range pts {
		s.Insert(i, p, all)
	}
	shared := sharedClock.Counters().SkylineCmps

	// Independent evaluation: one window per query.
	indepClock := metrics.NewClock()
	for _, pref := range prefs {
		var window [][]float64
		for _, p := range pts {
			dominated := false
			keep := window[:0]
			for _, w := range window {
				indepClock.CountSkylineCmp(1)
				if preference.DominatesIn(pref, w, p) {
					dominated = true
				}
				if !(preference.DominatesIn(pref, p, w)) {
					keep = append(keep, w)
				}
			}
			window = keep
			if !dominated {
				window = append(window, p)
			}
		}
	}
	indep := indepClock.Counters().SkylineCmps

	if shared >= indep {
		t.Fatalf("shared plan used %d comparisons, independent used %d — no sharing benefit", shared, indep)
	}
	t.Logf("shared=%d independent=%d (%.1fx saving)", shared, indep, float64(indep)/float64(shared))
}

func TestInsertReturnsCandidacy(t *testing.T) {
	prefs := []preference.Subspace{preference.NewSubspace(0, 1)}
	c, _ := BuildCuboid(prefs)
	s := NewSharedSkyline(c, nil)
	one := QSet(0).Add(0)
	if got := s.Insert(0, []float64{5, 5}, one); !got.Has(0) {
		t.Fatal("first point should be a candidate")
	}
	if got := s.Insert(1, []float64{9, 9}, one); got.Has(0) {
		t.Fatal("dominated point reported as candidate")
	}
	if got := s.Insert(2, []float64{1, 9}, one); !got.Has(0) {
		t.Fatal("incomparable point should be a candidate")
	}
}

func TestLineageIsolation(t *testing.T) {
	// A point of query 0 must never evict a point that only query 1 sees.
	prefs := []preference.Subspace{
		preference.NewSubspace(0, 1),
		preference.NewSubspace(0, 1),
	}
	c, _ := BuildCuboid(prefs)
	s := NewSharedSkyline(c, nil)
	q0 := QSet(0).Add(0)
	q1 := QSet(0).Add(1)
	s.Insert(0, []float64{9, 9}, q1) // bad point, but only query 1's
	s.Insert(1, []float64{1, 1}, q0) // great point for query 0 only
	if !s.IsCandidate(0, 1) {
		t.Fatal("query-0 point evicted query-1 result")
	}
	if !s.IsCandidate(1, 0) {
		t.Fatal("query-0 point lost")
	}
}

func TestPointVals(t *testing.T) {
	prefs := []preference.Subspace{preference.NewSubspace(0)}
	c, _ := BuildCuboid(prefs)
	s := NewSharedSkyline(c, nil)
	s.Insert(3, []float64{7}, QSet(0).Add(0))
	if v := s.PointVals(3); len(v) != 1 || v[0] != 7 {
		t.Fatalf("PointVals = %v", v)
	}
	if v := s.PointVals(99); v != nil {
		t.Fatalf("missing point returned %v", v)
	}
}

func TestWindowSize(t *testing.T) {
	prefs := []preference.Subspace{preference.NewSubspace(0, 1)}
	c, _ := BuildCuboid(prefs)
	s := NewSharedSkyline(c, nil)
	one := QSet(0).Add(0)
	s.Insert(0, []float64{1, 9}, one)
	s.Insert(1, []float64{9, 1}, one)
	if sn := s.prefSN[0]; sn.size-sn.dead != 2 {
		t.Fatalf("window holds %d live entries", sn.size-sn.dead)
	}
}

func TestCuboidSubspaceCounter(t *testing.T) {
	prefs := figure1Prefs()
	c, _ := BuildCuboid(prefs)
	clock := metrics.NewClock()
	NewSharedSkyline(c, clock)
	if got := clock.Counters().CuboidSubspace; got != 8 {
		t.Fatalf("cuboid subspaces counted = %d, want 8", got)
	}
}
