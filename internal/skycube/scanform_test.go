package skycube

import (
	"math/rand"
	"testing"

	"caqe/internal/metrics"
	"caqe/internal/preference"
)

// TestScanFormsAgree holds insertAt's two scan forms to each other. The
// payload masks and childProtects are two implementations of one protection
// proof, and insertAt runs a separate pair of loops for each, so nothing but
// this test says they protect the same pairs. One random schedule of Insert,
// Resettle, Remove and KillForQueries drives two shared skylines over one
// cuboid, one keeping the masks and one with them switched off, and after
// every step the two must agree: the same Insert and Resettle returns, the
// same windows entry for entry (dead entries and the dead counters
// included) and the same comparison count. Coordinates come from a three- or
// four-value domain, so equal sums, equal points and clean flags cleared by
// them are common. The second plan has 5- and 6-dimension nodes, where both
// forms compare through the kernel instead of the lanes.
func TestScanFormsAgree(t *testing.T) {
	plans := []struct {
		name  string
		d     int
		prefs []preference.Subspace
	}{
		{"4d", 4, []preference.Subspace{preference.NewSubspace(0, 1, 2, 3), preference.NewSubspace(0, 1),
			preference.NewSubspace(1, 2, 3), preference.NewSubspace(0, 1, 2), preference.NewSubspace(2, 3)}},
		{"5d-6d", 6, []preference.Subspace{preference.NewSubspace(0, 1, 2, 3, 4, 5), preference.NewSubspace(0, 1, 2, 3, 4),
			preference.NewSubspace(1, 2, 3, 4, 5), preference.NewSubspace(0, 1, 2), preference.NewSubspace(3, 4)}},
	}
	for _, plan := range plans {
		t.Run(plan.name, func(t *testing.T) {
			c, err := BuildCuboid(plan.prefs)
			if err != nil {
				t.Fatal(err)
			}
			mclock, wclock := metrics.NewClock(), metrics.NewClock()
			masked, walked := NewSharedSkyline(c, mclock), NewSharedSkyline(c, wclock)
			walked.useMasks = false
			if !masked.useMasks {
				t.Fatalf("%d nodes: the plan does not keep its masks", len(c.Nodes))
			}
			runScanForms(t, masked, walked, plan.d, len(plan.prefs))
			t.Logf("%d nodes, %d comparisons on each side", len(c.Nodes), mclock.Counters().SkylineCmps)
		})
	}
}

func runScanForms(t *testing.T, masked, walked *SharedSkyline, d, queries int) {
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
			if got, want := masked.Insert(pi, p, lineages[pi]), walked.Insert(pi, p, lineages[pi]); got != want {
				t.Fatalf("step %d: Insert(%d) = %v with masks, %v without", step, pi, got, want)
			}
		case op < 14: // an old point again: live where it survived, back where it died
			name = "reinsert"
			pi := rng.Intn(len(pts))
			if got, want := masked.Insert(pi, pts[pi], lineages[pi]), walked.Insert(pi, pts[pi], lineages[pi]); got != want {
				t.Fatalf("step %d: re-Insert(%d) = %v with masks, %v without", step, pi, got, want)
			}
		case op < 16:
			name = "kill"
			pi, dead := rng.Intn(len(pts)), randSubset()
			masked.KillForQueries(pi, dead)
			walked.KillForQueries(pi, dead)
		case op < 18: // judged afresh, its lineage possibly grown
			name = "resettle"
			pi := rng.Intn(len(pts))
			lineages[pi] |= randSubset()
			gotNow, gotWas := masked.Resettle(pi, lineages[pi])
			wantNow, wantWas := walked.Resettle(pi, lineages[pi])
			if gotNow != wantNow || gotWas != wantWas {
				t.Fatalf("step %d: Resettle(%d) = (%v, %v) with masks, (%v, %v) without", step, pi, gotNow, gotWas, wantNow, wantWas)
			}
		default:
			name = "remove"
			pi := rng.Intn(len(pts))
			got, want := masked.Remove(pi, nil), walked.Remove(pi, nil)
			if len(got) != len(want) {
				t.Fatalf("step %d: Remove(%d) took %d entries with masks, %d without", step, pi, len(got), len(want))
			}
			for i := range got {
				if got[i].Alive != want[i].Alive {
					t.Fatalf("step %d: Remove(%d) entry %d alive for %v with masks, %v without", step, pi, i, got[i].Alive, want[i].Alive)
				}
			}
		}
		sameWindows(t, masked, walked, step, name)
	}
}

// sameWindows requires the two skylines' windows to be equal entry for
// entry, in order, dead entries included, and their comparison counts to
// be equal.
func sameWindows(t *testing.T, masked, walked *SharedSkyline, step int, op string) {
	t.Helper()
	for i, msn := range masked.nodes {
		wsn := walked.nodes[i]
		if len(msn.window) != len(wsn.window) || msn.dead != wsn.dead {
			t.Fatalf("step %d (%s), node %d: %d entries (%d dead) with masks, %d (%d dead) without",
				step, op, i, len(msn.window), msn.dead, len(wsn.window), wsn.dead)
		}
		for j := range msn.window {
			if m, w := &msn.window[j], &wsn.window[j]; *m != *w {
				t.Fatalf("step %d (%s), node %d, entry %d: %+v with masks, %+v without", step, op, i, j, *m, *w)
			}
		}
	}
	if m, w := masked.clock.Counters().SkylineCmps, walked.clock.Counters().SkylineCmps; m != w {
		t.Fatalf("step %d (%s): %d comparisons with masks, %d without", step, op, m, w)
	}
}
