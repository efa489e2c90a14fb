package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/datagen"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/region"
	"caqe/internal/run"
	"caqe/internal/skycube"
	"caqe/internal/workload"
)

// referenceDepGraph is buildDepGraph as it read before the corner index:
// one QueryDims.Pair per forward pair of regions whose Alive sets meet,
// charged one cell operation. It returns each region's targets in push
// order and the indegrees.
func (st *state) referenceDepGraph() (targets [][]int, indegree []int) {
	m := len(st.regions)
	targets = make([][]int, m)
	indegree = make([]int, m)
	for i, ri := range st.regions {
		for j := i + 1; j < m; j++ {
			rj := st.regions[j]
			both := ri.Alive & rj.Alive
			if both == 0 {
				continue
			}
			st.clock.CountCellOp(1)
			notWeak, strict := st.uses.Pair(ri.Lo, rj.Lo)
			if mask := both & strict &^ notWeak; mask != 0 {
				targets[i] = append(targets[i], j)
				indegree[j]++
			}
		}
	}
	return targets, indegree
}

// referenceDominators is dominatorsByQuery as it read before the corner
// index: one QueryDims.Pair per other region whose Alive set meets rc's,
// charged one cell operation.
func (st *state) referenceDominators(rc *region.Region) [][]*region.Region {
	doms := make([][]*region.Region, len(st.w.Queries))
	for _, rf := range st.regions {
		both := rf.Alive & rc.Alive
		if rf == rc || both == 0 {
			continue
		}
		st.clock.CountCellOp(1)
		notWeak, _ := st.uses.Pair(rf.Lo, rc.Hi)
		for m := uint64(both &^ notWeak); m != 0; m &= m - 1 {
			qi := bits.TrailingZeros64(m)
			doms[qi] = append(doms[qi], rf)
		}
	}
	return doms
}

// randomCoarseState draws a state with m regions over nd output dimensions
// and nq queries of random non-empty preferences: bounds that tie often,
// hold NaN, ±Inf and −0 and sometimes have no extent, and Alive sets that
// are random (empty, the region done, for one region in ten).
func randomCoarseState(rng *rand.Rand, m, nd, nq int) *state {
	specials := []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0}
	w := &workload.Workload{OutDims: make([]join.MapFunc, nd), Queries: make([]workload.Query, nq)}
	for qi := range w.Queries {
		for len(w.Queries[qi].Pref) == 0 {
			w.Queries[qi].Pref = preference.SubspaceFromMask(uint64(rng.Intn(1 << uint(nd))))
		}
	}
	st := &state{e: &Engine{}, w: w, clock: metrics.NewClock(), uses: region.NewQueryDims(w.Queries, nd)}
	for i := 0; i < m; i++ {
		r := &region.Region{ID: i, Lo: make([]float64, nd), Hi: make([]float64, nd)}
		for k := range r.Lo {
			if rng.Intn(15) == 0 {
				r.Lo[k] = specials[rng.Intn(len(specials))]
			} else {
				r.Lo[k] = float64(rng.Intn(8))
			}
			r.Hi[k] = r.Lo[k]
			if rng.Intn(3) != 0 { // else no extent
				r.Hi[k] += float64(1 + rng.Intn(3))
			}
		}
		if rng.Intn(10) != 0 {
			r.Alive = skycube.QSet(rng.Intn(1 << uint(nq)))
		}
		st.regions = append(st.regions, r)
	}
	st.live = newLiveness(st.regions, nd, nq)
	return st
}

// checkDepGraph builds st's dependency graph and fails unless its rows,
// indegrees and charge are the reference loop's, then releases every region
// in a random order and requires each release to drop exactly the
// reference targets' indegrees and leave the row empty. It returns the
// number of edges.
func checkDepGraph(t *testing.T, rng *rand.Rand, label string, st *state) int {
	t.Helper()
	st.clock = metrics.NewClock()
	wantTargets, wantIndegree := st.referenceDepGraph()
	wantOps := st.clock.Counters().CellOps
	st.clock = metrics.NewClock()
	st.buildDepGraph()
	if ops := st.clock.Counters().CellOps; ops != wantOps {
		t.Fatalf("%s: %d cell operations, reference %d", label, ops, wantOps)
	}
	if !slices.Equal(st.indegree, wantIndegree) {
		t.Fatalf("%s: indegrees %v, reference %v", label, st.indegree, wantIndegree)
	}
	edges := 0
	for i, want := range wantTargets {
		var got []int
		row := st.edgeRow(i)
		for j := row.Next(0); j >= 0; j = row.Next(j + 1) {
			got = append(got, j)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: region %d targets %v, reference %v (corner %v, alive %v)", label, i, got, want, st.regions[i].Lo, st.regions[i].Alive)
		}
		edges += len(want)
	}
	// Every region counts as queued, so a release roots nothing into the
	// scheduler queue these states lack.
	for i := range st.live.queued {
		st.live.queued[i] = true
	}
	for _, i := range rng.Perm(len(st.regions)) {
		for _, j := range wantTargets[i] {
			wantIndegree[j]--
		}
		st.releaseEdges(i)
		if !slices.Equal(st.indegree, wantIndegree) || st.edgeRow(i).Count() != 0 {
			t.Fatalf("%s: releasing region %d leaves indegrees %v, reference %v, and %d targets", label, i, st.indegree, wantIndegree, st.edgeRow(i).Count())
		}
	}
	return edges
}

// TestDepGraphMatchesReference: on random states of up to 140 regions (over
// one, two and three words of region set) and on the plans of generated
// independent and anti-correlated data, the dependency graph's rows list
// the reference's targets in its push order, with its indegrees and cell
// operations, and releasing a region drops its targets' indegrees once.
func TestDepGraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := []int{1, 2, 63, 64, 65, 128, 129}
	edges := 0
	for trial := 0; trial < 300; trial++ {
		m := sizes[trial%len(sizes)]
		if trial%2 == 1 {
			m = 1 + rng.Intn(140)
		}
		st := randomCoarseState(rng, m, 1+rng.Intn(6), 1+rng.Intn(8))
		edges += checkDepGraph(t, rng, fmt.Sprintf("trial %d (%d regions)", trial, m), st)
	}
	for seed, dist := range []datagen.Distribution{datagen.Independent, datagen.AntiCorrelated, datagen.Correlated} {
		w := testWorkload(4, 3, workload.UniformPriority, c3s)
		r, tt := testPair(t, 600, 3, dist, 0.05, int64(seed))
		e := mustEngine(t, w, r, tt, Options{})
		clock := metrics.NewClock()
		cuboid, space, filter, err := e.plan(clock, true)
		if err != nil {
			t.Fatal(err)
		}
		st := newState(e, clock, space, e.newShared(cuboid, space, clock), run.NewReport("CAQE", e.w, nil), filter)
		edges += checkDepGraph(t, rng, fmt.Sprintf("%v plan (%d regions)", dist, len(st.regions)), st)
	}
	t.Logf("%d edges", edges)
	if edges < 50000 {
		t.Fatalf("only %d edges", edges)
	}
}

// checkDominators fails unless dominatorsByQuery gives every region of st
// the reference's dominators, as a set per query of the region's Alive set
// (the reference lists none for another query), and its charge. Both are
// charged to scratch clocks, so an execution checked between its steps
// proceeds exactly as if unchecked. It returns the number of dominators
// listed.
func checkDominators(t *testing.T, label string, st *state) int {
	t.Helper()
	clock := st.clock
	defer func() { st.clock = clock }()
	listed := 0
	for _, rc := range st.regions {
		st.clock = metrics.NewClock()
		want := st.referenceDominators(rc)
		wantOps := st.clock.Counters().CellOps
		st.clock = metrics.NewClock()
		got := st.dominatorsByQuery(rc)
		if ops := st.clock.Counters().CellOps; ops != wantOps {
			t.Fatalf("%s: region %d: %d cell operations, reference %d", label, rc.ID, ops, wantOps)
		}
		for qi := range st.w.Queries {
			if !rc.Alive.Has(qi) {
				if len(want[qi]) != 0 {
					t.Fatalf("%s: region %d, query %d outside its Alive set: reference dominators %v", label, rc.ID, qi, want[qi])
				}
				continue
			}
			var members []*region.Region
			for ri := got[qi].Next(0); ri >= 0; ri = got[qi].Next(ri + 1) {
				members = append(members, st.regions[ri])
			}
			if !slices.Equal(members, want[qi]) {
				t.Fatalf("%s: region %d, query %d: dominators %v, reference %v", label, rc.ID, qi, members, want[qi])
			}
			listed += len(want[qi])
		}
	}
	return listed
}

// TestDominatorsMatchReference: dominatorsByQuery finds, for every region
// and query it serves, the reference's dominators and charges the
// reference's cell operations — on random states with done regions, and at
// every point of checkSchedules' batch runs and random Exec
// schedules, where Admit, Cancel, Append and Delete grow the plan, move
// corners, revive and retire regions and reclaim query slots, and every
// write to a region's Alive set must reach the live sets.
func TestDominatorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	listed := 0
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(140)
		st := randomCoarseState(rng, m, 1+rng.Intn(6), 1+rng.Intn(8))
		listed += checkDominators(t, fmt.Sprintf("trial %d (%d regions)", trial, m), st)
	}
	const seeds = 12
	moved, grown := checkSchedules(t, seeds, func(label string, st *state) { listed += checkDominators(t, label, st) })
	t.Logf("%d dominators listed; %d appends moved a corner, %d admissions and appends added regions", listed, moved, grown)
	if listed < 100000 || moved == 0 || grown == 0 {
		t.Fatal("too little coverage")
	}
}

// BenchmarkCoarsePlan times the dependency graph, ProgCount's dominators,
// the CSM, the region discard and the frontier refresh on the plans of the
// benchmark's batch-indep workload: four 2500-row independent pairs at
// σ = 0.1 under its 11-query lattice, about 576 regions each. One op builds
// every plan's graph, finds the dominators of every region of every plan,
// or scores every live region, so even -benchtime 1x reads warm calls;
// ns/plan is the mean per plan. "index" is the corner-index form, the
// graph's including the index build; "reference" the loop the tests compare
// it with. The CSM runs on the dominator sets, every ProgCount computed
// afresh (csm/sets: a generation bump before each pass) or kept from the
// pass before (csm/kept), against the list path its test compares it with
// (csm/reference: referenceCSM), here on lists read off the same sets
// into reused slices, as dominatorsByQuery made them before. The discard and
// refresh run on copies of the plans after their first 32 region steps:
// one discard op re-runs, for every query, the discard of each step's
// results (it kills nothing after the first op), against the walk of the
// live set with a bound test per region ("reference"); one refresh op, for
// every query, sorts its live corners afresh, then kills them eight at a
// time in region order with a refresh after each kill, and revives them,
// against the collect-and-sort refresh after each kill ("reference").
// internal/region's BenchmarkCoarsePlan times the coarse prune the same
// way.
//
//	go test -run '^$' -bench CoarsePlan ./internal/core ./internal/region
func BenchmarkCoarsePlan(b *testing.B) {
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: 11, Dims: 4, Priority: workload.HighDimsHigh,
		NewContract: func(int) contract.Contract { return contract.C2() },
	})
	newPlans := func() []*state {
		var plans []*state
		for i := int64(0); i < 4; i++ {
			r, tt, err := datagen.Pair(2500, 4, datagen.Independent, []float64{0.1}, 2014+10*i)
			if err != nil {
				b.Fatal(err)
			}
			e, err := New(w, r, tt, Options{})
			if err != nil {
				b.Fatal(err)
			}
			clock := metrics.NewClock()
			cuboid, space, filter, err := e.plan(clock, false)
			if err != nil {
				b.Fatal(err)
			}
			plans = append(plans, newState(e, clock, space, e.newShared(cuboid, space, clock), run.NewReport("CAQE", e.w, nil), filter))
		}
		return plans
	}
	plans := newPlans()
	run := func(b *testing.B, plans []*state, pass func(st *state)) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, st := range plans {
				pass(st)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(plans)), "ns/plan")
	}
	b.Run("depgraph/index", func(b *testing.B) {
		run(b, plans, func(st *state) {
			st.live.index = nil
			st.buildDepGraph()
		})
	})
	b.Run("depgraph/reference", func(b *testing.B) { run(b, plans, func(st *state) { st.referenceDepGraph() }) })
	b.Run("dominators/index", func(b *testing.B) {
		run(b, plans, func(st *state) {
			for _, rc := range st.regions {
				st.dominatorsByQuery(rc)
			}
		})
	})
	b.Run("dominators/reference", func(b *testing.B) {
		run(b, plans, func(st *state) {
			for _, rc := range st.regions {
				st.referenceDominators(rc)
			}
		})
	})
	scoreLive := func(st *state, score func(rc *region.Region) float64) {
		for _, rc := range st.regions {
			if rc.Alive != 0 {
				coarseSink = score(rc)
			}
		}
	}
	b.Run("csm/sets", func(b *testing.B) {
		run(b, plans, func(st *state) {
			st.gen++
			scoreLive(st, st.csm)
		})
	})
	b.Run("csm/kept", func(b *testing.B) { run(b, plans, func(st *state) { scoreLive(st, st.csm) }) })
	lists := make([][]*region.Region, len(w.Queries))
	b.Run("csm/reference", func(b *testing.B) {
		run(b, plans, func(st *state) {
			scoreLive(st, func(rc *region.Region) float64 {
				sets := st.dominatorsByQuery(rc)
				for qi := range lists {
					lists[qi] = lists[qi][:0]
					if rc.Alive.Has(qi) {
						for ri := sets[qi].Next(0); ri >= 0; ri = sets[qi].Next(ri + 1) {
							lists[qi] = append(lists[qi], st.regions[ri])
						}
					}
				}
				return st.referenceCSM(rc, lists)
			})
		})
	})

	// The stepped plans: each step's results, and one discard of each.
	type step struct {
		qs       skycube.QSet
		payloads []int
	}
	stepped := newPlans()
	steps := map[*state][]step{}
	for _, st := range stepped {
		st.initQueue()
		for k := 0; k < 32 && st.step(); k++ {
		}
		byRegion := map[int][]int{}
		var order []int
		for c, chunk := range st.payloads {
			for i, info := range chunk {
				if _, ok := byRegion[info.reg]; !ok {
					order = append(order, info.reg)
				}
				byRegion[info.reg] = append(byRegion[info.reg], c<<payloadShift+i)
			}
		}
		for _, ri := range order {
			s := step{st.regions[ri].RQL, byRegion[ri]}
			steps[st] = append(steps[st], s)
			st.discardDominated(s.qs, s.payloads)
		}
	}
	b.Run("discard/index", func(b *testing.B) {
		run(b, stepped, func(st *state) {
			for _, s := range steps[st] {
				st.discardDominated(s.qs, s.payloads)
			}
		})
	})
	b.Run("discard/reference", func(b *testing.B) {
		run(b, stepped, func(st *state) {
			for _, s := range steps[st] {
				st.boundDiscard(s.qs, s.payloads)
			}
		})
	})

	refresh := func(st *state, after func(qi int)) {
		for qi := range st.w.Queries {
			bit := skycube.QSet(0).Add(qi)
			live := slices.Clone(st.live.sets[qi])
			st.gen++
			after(qi)
			for ri, n := live.Next(0), 0; ri >= 0; ri, n = live.Next(ri+1), n+1 {
				st.live.kill(st.regions[ri], bit)
				if n%8 == 7 {
					after(qi)
				}
			}
			for ri := live.Next(0); ri >= 0; ri = live.Next(ri + 1) {
				st.live.revive(st.regions[ri], bit)
			}
		}
	}
	b.Run("refresh/kept", func(b *testing.B) {
		run(b, stepped, func(st *state) {
			refresh(st, func(qi int) {
				st.frontierDirty[qi] = true
				st.refreshFrontier(qi)
			})
		})
	})
	b.Run("refresh/reference", func(b *testing.B) {
		run(b, stepped, func(st *state) { refresh(st, func(qi int) { referenceFrontier(st, qi) }) })
	})
}

var coarseSink float64
