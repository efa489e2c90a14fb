package skycube

import (
	"math/rand"
	"testing"

	"caqe/internal/metrics"
	"caqe/internal/preference"
)

// TestProtectionOnlySkipsComparisons holds the child-protection proof to a
// skyline that never protects. Protection may only skip comparisons whose
// outcome could not have mattered, so one random schedule of Insert,
// Resettle and Remove drives two shared skylines over one cuboid, one as built and one with every childMask zeroed, and after every
// step the two must agree: the same Insert, Resettle and Remove returns, the
// same windows entry for entry (clean flags, dead entries and the dead
// counters included), and no more comparisons on the protected side.
// Coordinates come from a three- or four-value domain, so equal keys, equal
// points and clean flags cleared by them are common. Each plan runs over two
// grids: [0, 3], where each value has a quantum of its own, and the unit
// box, where every value from 1 on clamps to one. The second plan has 5-
// and 6-dimension nodes, compared through the kernel instead of the lanes;
// the third has 67 nodes, so three of them have no mask bit (nodeBit).
func TestProtectionOnlySkipsComparisons(t *testing.T) {
	plans := []struct {
		name  string
		d     int
		prefs []preference.Subspace
		nodes int
	}{
		{"4d", 4, []preference.Subspace{preference.NewSubspace(0, 1, 2, 3), preference.NewSubspace(0, 1),
			preference.NewSubspace(1, 2, 3), preference.NewSubspace(0, 1, 2), preference.NewSubspace(2, 3)}, 12},
		{"5d-6d", 6, []preference.Subspace{preference.NewSubspace(0, 1, 2, 3, 4, 5), preference.NewSubspace(0, 1, 2, 3, 4),
			preference.NewSubspace(1, 2, 3, 4, 5), preference.NewSubspace(0, 1, 2), preference.NewSubspace(3, 4)}, 48},
		{"past-64", 7, allSubspaces(7)[:60], 67},
	}
	for _, plan := range plans {
		t.Run(plan.name, func(t *testing.T) {
			c, err := BuildCuboid(plan.prefs)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Nodes) != plan.nodes {
				t.Fatalf("%d nodes, want %d", len(c.Nodes), plan.nodes)
			}
			for _, top := range []float64{3, 1} {
				lo, hi := make([]float64, plan.d), box(plan.d, top)
				pclock, uclock := metrics.NewClock(), metrics.NewClock()
				protected, unprotected := NewSharedSkylineIn(c, pclock, lo, hi), NewSharedSkylineIn(c, uclock, lo, hi)
				for _, sn := range unprotected.nodes {
					sn.childMask = 0
				}
				runProtection(t, protected, unprotected, plan.d, len(plan.prefs))
				t.Logf("grid [0, %g]: %d nodes, %d comparisons protected, %d unprotected",
					top, len(c.Nodes), pclock.Counters().SkylineCmps, uclock.Counters().SkylineCmps)
			}
		})
	}
}

func runProtection(t *testing.T, protected, unprotected *SharedSkyline, d, queries int) {
	rng := rand.New(rand.NewSource(int64(d)))
	values := 3 + rng.Intn(2)
	var pts [][]float64 // write-once: a payload keeps its coordinates for good
	var lineages []QSet
	randSubset := func() QSet {
		q := QSet(0).Add(rng.Intn(queries))
		for qi := 0; qi < queries; qi++ {
			if rng.Intn(3) == 0 {
				q = q.Add(qi)
			}
		}
		return q
	}
	for step := 0; step < 3000; step++ {
		op := rng.Intn(20)
		name := "insert"
		switch {
		case op < 12 || len(pts) == 0: // a new point
			p := make([]float64, d)
			for k := range p {
				p[k] = float64(rng.Intn(values))
			}
			pts, lineages = append(pts, p), append(lineages, randSubset())
			pi := len(pts) - 1
			if got, want := protected.Insert(pi, p, lineages[pi]), unprotected.Insert(pi, p, lineages[pi]); got != want {
				t.Fatalf("step %d: Insert(%d) = %v protected, %v unprotected", step, pi, got, want)
			}
		case op < 14: // an old point again: live where it survived, back where it died
			name = "reinsert"
			pi := rng.Intn(len(pts))
			if got, want := protected.Insert(pi, pts[pi], lineages[pi]), unprotected.Insert(pi, pts[pi], lineages[pi]); got != want {
				t.Fatalf("step %d: re-Insert(%d) = %v protected, %v unprotected", step, pi, got, want)
			}
		case op < 17: // judged afresh, its lineage possibly grown
			name = "resettle"
			pi := rng.Intn(len(pts))
			lineages[pi] |= randSubset()
			gotNow, gotWas := protected.Resettle(pi, lineages[pi])
			wantNow, wantWas := unprotected.Resettle(pi, lineages[pi])
			if gotNow != wantNow || gotWas != wantWas {
				t.Fatalf("step %d: Resettle(%d) = (%v, %v) protected, (%v, %v) unprotected", step, pi, gotNow, gotWas, wantNow, wantWas)
			}
		default:
			name = "remove"
			pi := rng.Intn(len(pts))
			got, want := protected.Remove(pi, nil), unprotected.Remove(pi, nil)
			if len(got) != len(want) {
				t.Fatalf("step %d: Remove(%d) took %d entries protected, %d unprotected", step, pi, len(got), len(want))
			}
			for i := range got {
				if got[i].Alive != want[i].Alive {
					t.Fatalf("step %d: Remove(%d) entry %d alive for %v protected, %v unprotected", step, pi, i, got[i].Alive, want[i].Alive)
				}
			}
		}
		sameWindows(t, protected, unprotected, step, name)
	}
}

// sameWindows requires the two skylines' windows to be equal block for
// block (bounds included) and entry for entry, in order, dead entries
// included, and the protected side to have made no more comparisons than
// the unprotected one.
func sameWindows(t *testing.T, protected, unprotected *SharedSkyline, step int, op string) {
	t.Helper()
	for i, psn := range protected.nodes {
		usn := unprotected.nodes[i]
		if len(psn.blocks) != len(usn.blocks) || psn.size != usn.size || psn.dead != usn.dead {
			t.Fatalf("step %d (%s), node %d: %d blocks, %d entries (%d dead) protected, %d blocks, %d (%d dead) unprotected",
				step, op, i, len(psn.blocks), psn.size, psn.dead, len(usn.blocks), usn.size, usn.dead)
		}
		for bi, pb := range psn.blocks {
			ub := usn.blocks[bi]
			if pb.n != ub.n || pb.lo != ub.lo || pb.hi != ub.hi {
				t.Fatalf("step %d (%s), node %d, block %d: %d entries in %v–%v protected, %d in %v–%v unprotected",
					step, op, i, bi, pb.n, pb.lo, pb.hi, ub.n, ub.lo, ub.hi)
			}
			for j := range pb.e[:pb.n] {
				if p, u := &pb.e[j], &ub.e[j]; *p != *u {
					t.Fatalf("step %d (%s), node %d, block %d, entry %d: %+v protected, %+v unprotected", step, op, i, bi, j, *p, *u)
				}
			}
		}
	}
	if p, u := protected.clock.Counters().SkylineCmps, unprotected.clock.Counters().SkylineCmps; p > u {
		t.Fatalf("step %d (%s): %d comparisons protected, %d unprotected", step, op, p, u)
	}
}
