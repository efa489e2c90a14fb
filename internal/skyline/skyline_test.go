package skyline

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"caqe/internal/metrics"
	"caqe/internal/preference"
)

func randPoints(rng *rand.Rand, n, d, domain int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		vals := make([]float64, d)
		for k := range vals {
			vals[k] = float64(rng.Intn(domain))
		}
		pts[i] = Point{Vals: vals, Payload: i}
	}
	return pts
}

func payloads(pts []Point) []int {
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = p.Payload
	}
	sort.Ints(out)
	return out
}

func samePayloads(a, b []Point) bool {
	pa, pb := payloads(a), payloads(b)
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

func TestAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(3)
		n := rng.Intn(60)
		domain := 2 + rng.Intn(10) // small domains force ties
		pts := randPoints(rng, n, d, domain)
		var dims []int
		for k := 0; k < d; k++ {
			dims = append(dims, k)
		}
		v := preference.NewSubspace(dims[:1+rng.Intn(d)]...)

		naive := Naive(v, pts, nil)
		bnl := BNL(v, pts, nil)
		sfs := SFS(v, pts, nil)
		if !samePayloads(naive, bnl) {
			t.Fatalf("trial %d: BNL %v != naive %v (v=%v)", trial, payloads(bnl), payloads(naive), v)
		}
		if !samePayloads(naive, sfs) {
			t.Fatalf("trial %d: SFS %v != naive %v (v=%v)", trial, payloads(sfs), payloads(naive), v)
		}
	}
}

// TestSkylineInvariant checks the two defining properties of a skyline: no
// member is dominated by any input point, and every non-member is dominated
// by some member.
func TestSkylineInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		pts := randPoints(rng, 80, 3, 6)
		v := preference.NewSubspace(0, 1, 2)
		sky := BNL(v, pts, nil)
		inSky := map[int]bool{}
		for _, s := range sky {
			inSky[s.Payload] = true
		}
		for _, s := range sky {
			for _, p := range pts {
				if preference.DominatesIn(v, p.Vals, s.Vals) {
					t.Fatalf("skyline member %v dominated by %v", s, p)
				}
			}
		}
		for _, p := range pts {
			if inSky[p.Payload] {
				continue
			}
			dominated := false
			for _, s := range sky {
				if preference.DominatesIn(v, s.Vals, p.Vals) {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("non-member %v not dominated by any skyline member", p)
			}
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	v := preference.NewSubspace(0, 1)
	if got := BNL(v, nil, nil); len(got) != 0 {
		t.Errorf("BNL(nil) = %v", got)
	}
	if got := SFS(v, nil, nil); len(got) != 0 {
		t.Errorf("SFS(nil) = %v", got)
	}
	one := []Point{{Vals: []float64{1, 2}, Payload: 7}}
	if got := BNL(v, one, nil); len(got) != 1 || got[0].Payload != 7 {
		t.Errorf("BNL(singleton) = %v", got)
	}
}

func TestDuplicatePointsAllSurvive(t *testing.T) {
	// Equal points do not dominate each other, so duplicates all stay.
	v := preference.NewSubspace(0, 1)
	pts := []Point{
		{Vals: []float64{1, 1}, Payload: 0},
		{Vals: []float64{1, 1}, Payload: 1},
		{Vals: []float64{2, 2}, Payload: 2},
	}
	for name, algo := range map[string]func(preference.Subspace, []Point, *metrics.Clock) []Point{
		"naive": Naive, "bnl": BNL, "sfs": SFS,
	} {
		got := algo(v, pts, nil)
		if len(got) != 2 {
			t.Errorf("%s: got %v, want the two duplicates", name, payloads(got))
		}
	}
}

func TestSortByMonotoneScoreRespectsDominance(t *testing.T) {
	// If a dominates b in v, a must sort strictly before b.
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 60, 3, 8)
	v := preference.NewSubspace(0, 2)
	sorted := sortByMonotoneScore(v, pts)
	pos := map[int]int{}
	for i, p := range sorted {
		pos[p.Payload] = i
	}
	for _, a := range pts {
		for _, b := range pts {
			if preference.DominatesIn(v, a.Vals, b.Vals) && pos[a.Payload] > pos[b.Payload] {
				t.Fatalf("dominating point sorted after dominated one")
			}
		}
	}
}

func TestComparisonCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 200, 3, 50)
	v := preference.NewSubspace(0, 1, 2)

	counts := map[string]int64{}
	for name, algo := range map[string]func(preference.Subspace, []Point, *metrics.Clock) []Point{
		"naive": Naive, "bnl": BNL, "sfs": SFS,
	} {
		clock := metrics.NewClock()
		algo(v, pts, clock)
		counts[name] = clock.Counters().SkylineCmps
		if counts[name] == 0 {
			t.Errorf("%s performed zero comparisons on 200 points", name)
		}
	}
	// SFS's presorting should beat BNL, and both should beat naive, on a
	// typical independent dataset of this size.
	if counts["sfs"] > counts["bnl"] {
		t.Errorf("SFS (%d cmps) worse than BNL (%d)", counts["sfs"], counts["bnl"])
	}
	if counts["bnl"] > counts["naive"] {
		t.Errorf("BNL (%d cmps) worse than naive (%d)", counts["bnl"], counts["naive"])
	}
}

func TestSubspaceSkylineSupersetsFullSpace(t *testing.T) {
	// Under distinct values, the skyline of a subspace is contained in the
	// skyline of any superspace (Theorem 1's point-level analogue).
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		// Distinct values per dimension: use a random permutation per dim.
		n := 40
		pts := make([]Point, n)
		perm := func() []int { return rng.Perm(n) }
		p0, p1, p2 := perm(), perm(), perm()
		for i := 0; i < n; i++ {
			pts[i] = Point{Vals: []float64{float64(p0[i]), float64(p1[i]), float64(p2[i])}, Payload: i}
		}
		sub := preference.NewSubspace(0, 1)
		full := preference.NewSubspace(0, 1, 2)
		subSky := payloads(BNL(sub, pts, nil))
		fullSky := map[int]bool{}
		for _, p := range BNL(full, pts, nil) {
			fullSky[p.Payload] = true
		}
		for _, pl := range subSky {
			if !fullSky[pl] {
				t.Fatalf("subspace skyline member %d missing from superspace skyline", pl)
			}
		}
	}
}

// TestWindowInsert pins the window's insert on a hand-worked input in (x, y):
// the comparisons made up to the first window point that dominates the
// newcomer, eviction of a middle point with the survivors' order kept, and
// equal points both staying.
func TestWindowInsert(t *testing.T) {
	clock := metrics.NewClock()
	w := NewWindow[string](preference.NewSubspace(0, 1), clock)
	steps := []struct {
		name   string
		vals   []float64
		joined bool
		cmps   int64 // comparisons this insert makes
		window []string
	}{
		{"a", []float64{3, 3}, true, 0, []string{"a"}},
		{"b", []float64{1, 5}, true, 1, []string{"a", "b"}},
		{"c", []float64{5, 1}, true, 2, []string{"a", "b", "c"}},
		// a and d are incomparable, b dominates d: c is never compared.
		{"d", []float64{2, 6}, false, 2, []string{"a", "b", "c"}},
		// e dominates b only: b leaves, a and c keep their order.
		{"e", []float64{1, 4}, true, 3, []string{"a", "c", "e"}},
		// f equals e: neither dominates the other, both stay.
		{"f", []float64{1, 4}, true, 3, []string{"a", "c", "e", "f"}},
	}
	for _, s := range steps {
		before := w.Cmps
		if got := w.Insert(s.vals, s.name); got != s.joined {
			t.Fatalf("Insert(%s) = %v, want %v", s.name, got, s.joined)
		}
		if got := w.Cmps - before; got != s.cmps {
			t.Fatalf("Insert(%s) made %d comparisons, want %d", s.name, got, s.cmps)
		}
		if got := w.Items(); !reflect.DeepEqual(got, s.window) {
			t.Fatalf("after %s: window %v, want %v", s.name, got, s.window)
		}
	}
	if w.Cmps != 11 {
		t.Fatalf("Cmps = %d, want 11", w.Cmps)
	}
	if got := clock.Counters().SkylineCmps; got != w.Cmps {
		t.Fatalf("clock charged %d comparisons, window counted %d", got, w.Cmps)
	}
}
