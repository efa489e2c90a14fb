package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/region"
	"caqe/internal/run"
	"caqe/internal/skycube"
	"caqe/internal/trace"
	"caqe/internal/workload"
)

// discardKill is one (region, query) pair a discard pass killed, with the
// cell operations charged in the pass up to the kill.
type discardKill struct {
	region, query int
	cellOps       int64
}

// discardTracer records every discard event with the clock's cell
// operations as the event reads them.
type discardTracer struct {
	clock *metrics.Clock
	kills []discardKill
}

func (d *discardTracer) Trace(ev trace.Event) {
	if ev.Kind == trace.KindDiscard {
		d.kills = append(d.kills, discardKill{ev.Region, ev.Query, d.clock.Counters().CellOps})
	}
}

// referenceDiscard is discardDominated as it read before the champions'
// bound and the live sets: for each query of qs, the candidates among
// payloads (read off the windows), then the best corner of every region
// Alive for the query tested against them one by one, one cell operation
// per test. It works on copies and changes nothing: it returns the region
// alive sets the pass leaves, the cell operations it charges and each kill
// with the cell operations charged up to it.
func (st *state) referenceDiscard(qs skycube.QSet, payloads []int) (alive []skycube.QSet, cellOps int64, kills []discardKill) {
	for _, rf := range st.regions {
		alive = append(alive, rf.Alive)
	}
	for qi := qs.Next(0); qi >= 0; qi = qs.Next(qi + 1) {
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
			if !alive[fi].Has(qi) {
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
				kills = append(kills, discardKill{fi, qi, cellOps})
			}
		}
	}
	return alive, cellOps, kills
}

// boundDiscard is discardDominated as it read before the probe of the corner
// index: every live region of each query takes the bound test, and those it
// does not rule out take champion tests. BenchmarkCoarsePlan times the
// probe against it.
func (st *state) boundDiscard(qs skycube.QSet, newPayloads []int) skycube.QSet {
	var killedQueries skycube.QSet
	for qi := qs.Next(0); qi >= 0; qi = qs.Next(qi + 1) {
		champs, bound := st.champions(qi, newPayloads)
		if len(champs) == 0 {
			continue
		}
		live := st.live.sets[qi]
		for fi := live.Next(0); fi >= 0; fi = live.Next(fi + 1) {
			rf := st.regions[fi]
			if !st.cornerDominated(qi, champs, bound, rf) {
				continue
			}
			killedQueries = killedQueries.Add(qi)
			st.traceDiscard(fi, qi)
			if st.live.kill(rf, skycube.QSet(0).Add(qi)) {
				st.clock.CountRegionPruned()
				st.releaseEdges(fi)
			}
		}
	}
	st.markFrontiersDirty(killedQueries)
	return killedQueries
}

// TestDiscardMatchesReference: on random plans, champions and regions,
// discardDominated kills exactly the (region, query) pairs the reference
// kills, in its order and with the same cell operations charged before
// each kill (as the kill's trace event reads the clock), retires the same
// regions (empties their Alive sets, and their live sets follow) and
// charges the same cell operations in all.
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
			w:             &workload.Workload{OutDims: make([]join.MapFunc, nd)},
			clock:         metrics.NewClock(),
			rep:           &run.Report{},
			shared:        skycube.NewSharedSkyline(cuboid, nil),
			frontierDirty: make([]bool, nq),
		}
		tracer := &discardTracer{clock: st.clock}
		st.tracer = tracer
		for qi := range prefs {
			st.qremap = append(st.qremap, qi)
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
			if rng.Intn(10) == 0 {
				r.Alive = 0 // done
			}
			st.regions = append(st.regions, r)
		}
		st.indegree = make([]int, nr)
		// Region 0 was just processed for every query: done, as
		// processRegion leaves it.
		st.regions[0].Alive = 0
		st.live = newLiveness(st.regions, nd, nq)

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
		for qi := all.Next(0); qi >= 0; qi = all.Next(qi + 1) {
			champs, bound := st.champions(qi, payloads)
			if len(champs) == 0 {
				continue
			}
			for _, rf := range st.regions {
				if !rf.Alive.Has(qi) {
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

		wantAlive, wantOps, wantKills := st.referenceDiscard(all, payloads)
		var wantKilled skycube.QSet
		for fi, rf := range st.regions {
			lost := rf.Alive &^ wantAlive[fi]
			wantKilled |= lost
			kills += lost.Count()
		}
		before := st.clock.Counters().CellOps
		if killed := st.discardDominated(all, payloads); killed != wantKilled {
			t.Fatalf("trial %d: killed queries %v, reference %v", trial, killed, wantKilled)
		}
		if got := st.clock.Counters().CellOps - before; got != wantOps {
			t.Fatalf("trial %d: %d cell operations, reference %d", trial, got, wantOps)
		}
		for i := range tracer.kills {
			tracer.kills[i].cellOps -= before
		}
		if !slices.Equal(tracer.kills, wantKills) {
			t.Fatalf("trial %d: kills (region, query, cell operations so far) %v, reference %v", trial, tracer.kills, wantKills)
		}
		for fi, rf := range st.regions {
			if rf.Alive != wantAlive[fi] {
				t.Fatalf("trial %d: region %d alive %v, reference %v (corner %v, prefs %v)",
					trial, fi, rf.Alive, wantAlive[fi], rf.Lo, prefs)
			}
		}
		for qi, set := range st.live.sets {
			for fi, rf := range st.regions {
				if set.Has(fi) != rf.Alive.Has(qi) {
					t.Fatalf("trial %d: query %d: region %d live %v, Alive %v", trial, qi, fi, set.Has(fi), rf.Alive)
				}
			}
		}
	}
	t.Logf("%d (region, query) pairs killed, %d ruled out by the bound, %d tying it; %d wide preferences", kills, ruledOut, ties, wide)
	if kills < 1000 || ruledOut < 1000 || ties < 1000 || wide < 100 {
		t.Fatalf("too little coverage: %d pairs killed, %d ruled out, %d ties, %d wide preferences", kills, ruledOut, ties, wide)
	}
}
