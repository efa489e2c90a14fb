package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/region"
	"caqe/internal/skycube"
)

// referenceDiscard is discardDominated as it read before the champions'
// bound: for each query rc serves, the candidates among payloads (read off
// the windows), then every live region's best corner tested against them
// one by one, one cell operation per test. It works on copies and changes
// nothing: it returns the region alive sets and processed flags the pass
// leaves, and the cell operations it charges.
func (st *state) referenceDiscard(rc *region.Region, payloads []int) (alive []skycube.QSet, processed []bool, cellOps int64) {
	processed = slices.Clone(st.processed)
	for _, rf := range st.regions {
		alive = append(alive, rf.Alive)
	}
	for qi := rc.Alive.Next(0); qi >= 0; qi = rc.Alive.Next(qi + 1) {
		cands := st.shared.Candidates(qi)
		var champs [][]float64
		for _, p := range payloads {
			if st.payloads.at(p).lineage.Has(qi) && slices.Contains(cands, p) {
				champs = append(champs, st.shared.PointVals(p))
			}
		}
		if len(champs) == 0 {
			continue
		}
		kern := st.kerns[qi]
		for fi, rf := range st.regions {
			if processed[fi] || rf == rc || !alive[fi].Has(qi) {
				continue
			}
			dominated := false
			for _, x := range champs {
				cellOps++
				if kern.Dominates(x, rf.Lo) {
					dominated = true
					break
				}
			}
			if dominated {
				alive[fi] &^= 1 << uint(qi)
				processed[fi] = processed[fi] || alive[fi] == 0
			}
		}
	}
	return alive, processed, cellOps
}

// TestDiscardMatchesReference: on random plans, champions and regions,
// discardDominated kills exactly the (region, query) pairs the reference
// kills, retires the same regions and charges the same cell operations.
// Coordinates come from a small domain, so region corners often tie the
// champions' bound; some champions and corners have a NaN coordinate, some
// regions a zero-extent dimension, and some plans a preference of five or
// more dimensions, which compares through the kernel.
func TestDiscardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	domain := []float64{0, 1, 1, 2, 3, math.Copysign(0, -1)}
	coord := func() float64 {
		if rng.Intn(20) == 0 {
			return math.NaN()
		}
		return domain[rng.Intn(len(domain))]
	}
	var kills, ruledOut, ties, wide int
	for trial := 0; trial < 1500; trial++ {
		nd := 2 + rng.Intn(5)
		nq := 1 + rng.Intn(4)
		prefs := make([]preference.Subspace, nq)
		for qi := range prefs {
			for len(prefs[qi]) == 0 {
				prefs[qi] = preference.SubspaceFromMask(uint64(rng.Intn(1 << uint(nd))))
			}
		}
		if nd >= 5 && rng.Intn(2) == 0 {
			prefs[0] = preference.SubspaceFromMask(1<<uint(nd) - 1)
		}
		cuboid, err := skycube.BuildCuboid(prefs)
		if err != nil {
			t.Fatal(err)
		}
		all := skycube.QSet(1<<uint(nq) - 1)
		randQs := func() skycube.QSet { return 1 + skycube.QSet(rng.Intn(int(all))) } // non-empty
		st := &state{
			e:             &Engine{},
			clock:         metrics.NewClock(),
			shared:        skycube.NewSharedSkyline(cuboid, nil),
			frontierDirty: make([]bool, nq),
		}
		for _, pref := range prefs {
			st.kerns = append(st.kerns, preference.NewKernel(pref))
			if len(pref) > 4 {
				wide++
			}
		}
		nr := 1 + rng.Intn(30)
		for i := 0; i < nr; i++ {
			r := &region.Region{ID: i, Lo: make([]float64, nd), Hi: make([]float64, nd), Alive: randQs()}
			for k := range r.Lo {
				r.Lo[k] = coord()
				r.Hi[k] = r.Lo[k]
				if rng.Intn(3) != 0 { // else a zero-extent dimension
					r.Hi[k] += float64(1 + rng.Intn(2))
				}
			}
			st.regions = append(st.regions, r)
			st.processed = append(st.processed, rng.Intn(10) == 0)
		}
		st.inQueue = make([]bool, nr)
		st.indegree = make([]int, nr)
		rc := st.regions[0]
		rc.Alive = all
		st.processed[0] = true
		for range prefs {
			st.live = append(st.live, region.NewBits(nr))
		}
		for ri := range st.regions {
			st.syncLive(ri)
		}

		var payloads []int
		for n := rng.Intn(12); n > 0; n-- {
			x := make([]float64, nd)
			for k := range x {
				x[k] = coord()
			}
			lineage := randQs()
			p := st.payloads.add(payloadInfo{lineage: lineage})
			st.shared.Insert(p, x, lineage)
			payloads = append(payloads, p)
		}

		// What the bound decides, for the coverage counts.
		for qi := rc.Alive.Next(0); qi >= 0; qi = rc.Alive.Next(qi + 1) {
			champs, bound := st.champions(qi, payloads)
			if len(champs) == 0 {
				continue
			}
			for fi, rf := range st.regions {
				if st.processed[fi] || rf == rc || !rf.Alive.Has(qi) {
					continue
				}
				below, tie := false, false
				for k, d := range prefs[qi] {
					below = below || rf.Lo[d] < bound[k]
					tie = tie || rf.Lo[d] == bound[k]
				}
				if below {
					ruledOut++
				} else if tie {
					ties++
				}
			}
		}

		wantAlive, wantProcessed, wantOps := st.referenceDiscard(rc, payloads)
		var wantKilled skycube.QSet
		for fi, rf := range st.regions {
			lost := rf.Alive &^ wantAlive[fi]
			wantKilled |= lost
			kills += lost.Count()
		}
		before := st.clock.Counters().CellOps
		if killed := st.discardDominated(rc, payloads); killed != wantKilled {
			t.Fatalf("trial %d: killed queries %v, reference %v", trial, killed, wantKilled)
		}
		if got := st.clock.Counters().CellOps - before; got != wantOps {
			t.Fatalf("trial %d: %d cell operations, reference %d", trial, got, wantOps)
		}
		for fi, rf := range st.regions {
			if rf.Alive != wantAlive[fi] || st.processed[fi] != wantProcessed[fi] {
				t.Fatalf("trial %d: region %d alive %v processed %v, reference %v %v (corner %v, prefs %v)",
					trial, fi, rf.Alive, st.processed[fi], wantAlive[fi], wantProcessed[fi], rf.Lo, prefs)
			}
		}
	}
	t.Logf("%d (region, query) pairs killed, %d ruled out by the bound, %d tying it; %d wide preferences", kills, ruledOut, ties, wide)
	if kills < 1000 || ruledOut < 1000 || ties < 1000 || wide < 100 {
		t.Fatalf("too little coverage: %d pairs killed, %d ruled out, %d ties, %d wide preferences", kills, ruledOut, ties, wide)
	}
}
