package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/datagen"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/run"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// referenceFrontier is the refresh the kept order replaced: collect every
// live region of query qi, sort by (best-corner sum over the preference,
// region), and keep each corner no kept one weakly dominates, comparing
// through the kernel on the regions' best corners. It returns the
// frontier's regions in order and the number of comparisons made.
func referenceFrontier(st *state, qi int) (regions []int, cmps int64) {
	kern := st.kerns[qi]
	type key struct {
		sum    float64
		region int
	}
	var keys []key
	for fi, rf := range st.space.Regions {
		if rf.Alive.Has(qi) {
			keys = append(keys, key{kern.Sum(st.space.LoRow(fi)), fi})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sum != keys[j].sum {
			return keys[i].sum < keys[j].sum
		}
		return keys[i].region < keys[j].region
	})
	for _, k := range keys {
		dominated := false
		for _, o := range regions {
			cmps++
			if kern.WeakDominates(st.space.LoRow(o), st.space.LoRow(k.region)) {
				dominated = true
				break
			}
		}
		if !dominated {
			regions = append(regions, k.region)
		}
	}
	return regions, cmps
}

// checkFrontiers refreshes every query's frontier from its kept order and
// compares the corners, their lanes and the comparisons charged with the
// reference refresh over the current state. The refresh is charged to a
// scratch clock, and the frontier, its dirty flag and the kept records are
// put back afterwards, so the execution proceeds exactly as if unchecked. A
// frontier no refresh is due for must hold every corner where it lies now.
// After the refresh the kept records must describe the frontier: the kept
// set is the live set, every live corner is either marked minimal and on
// the frontier or names as its blocker the first frontier corner that
// weakly dominates it, and each frontier corner's count and dependents
// chain hold exactly the live corners it blocks.
func checkFrontiers(t *testing.T, label string, st *state) int {
	t.Helper()
	for qi := range st.frontier {
		kern := &st.kerns[qi]
		lanesOf := func(c liveCorner) (l preference.Lanes) {
			kern.Project(st.space.LoRow(int(c.region)), &l)
			return l
		}
		if !st.frontierDirty[qi] {
			for _, c := range st.frontier[qi] {
				if c.lanes != lanesOf(c) {
					t.Fatalf("%s: query %d: clean frontier holds region %d at %v, its corner is at %v", label, qi, c.region, c.lanes, lanesOf(c))
				}
			}
		}
		saved, dirty, clock := slices.Clone(st.frontier[qi]), st.frontierDirty[qi], st.clock
		savedOrder := st.order[qi]
		savedOrder.corners, savedOrder.at, savedOrder.kept = slices.Clone(savedOrder.corners), slices.Clone(savedOrder.at), slices.Clone(savedOrder.kept)
		st.clock = metrics.NewClock()
		st.frontierDirty[qi] = true
		st.refreshFrontier(qi)
		charged := st.clock.Counters().CellOps
		ko, fr := st.order[qi], st.frontier[qi]
		var got []int
		for _, c := range fr {
			got = append(got, int(c.region))
			if c.lanes != lanesOf(c) {
				t.Fatalf("%s: query %d: refreshed corner of region %d has lanes %v, want %v", label, qi, c.region, c.lanes, lanesOf(c))
			}
			if ko.corners[c.pos].region != c.region {
				t.Fatalf("%s: query %d: frontier corner of region %d names position %d, which holds region %d", label, qi, c.region, c.pos, ko.corners[c.pos].region)
			}
		}
		want, cmps := referenceFrontier(st, qi)
		if !slices.Equal(got, want) || charged != cmps {
			t.Fatalf("%s: query %d (pref %v): frontier %v charging %d comparisons, the sorted live set gives %v charging %d",
				label, qi, kern.Sub(), got, charged, want, cmps)
		}
		live := st.live.sets[qi]
		if !slices.Equal(ko.kept, live[:len(ko.kept)]) || slices.ContainsFunc(live[len(ko.kept):], func(w uint64) bool { return w != 0 }) || ko.n != live.Count() {
			t.Fatalf("%s: query %d: kept set %v of %d members, live set %v", label, qi, ko.kept, ko.n, live)
		}
		blocks := map[int32]int32{} // frontier position → live corners it blocks first
		for p, c := range ko.corners {
			if !live.Has(int(c.region)) {
				continue
			}
			if ko.at[c.region] != int32(p) {
				t.Fatalf("%s: query %d: region %d sits at position %d, recorded at %d", label, qi, c.region, p, ko.at[c.region])
			}
			lo := st.space.LoRow(int(c.region))
			first := minimalCorner
			for _, o := range want {
				if kern.WeakDominates(st.space.LoRow(o), lo) {
					first = int32(o)
					break
				}
			}
			if c.blocker == minimalCorner {
				if !slices.Contains(want, int(c.region)) {
					t.Fatalf("%s: query %d: region %d is marked minimal, the frontier is %v", label, qi, c.region, want)
				}
				continue
			}
			if b := ko.corners[c.blocker].region; b != first {
				t.Fatalf("%s: query %d: region %d keeps blocker %d, the first frontier corner dominating it is %d (frontier %v)",
					label, qi, c.region, b, first, want)
			}
			blocks[c.blocker]++
		}
		for _, f := range fr {
			var chained int32
			for p := ko.corners[f.pos].link; p != noCorner; p = ko.corners[p].link {
				if c := ko.corners[p]; live.Has(int(c.region)) {
					if c.blocker != f.pos {
						t.Fatalf("%s: query %d: region %d is chained to frontier region %d, blocked by position %d", label, qi, c.region, f.region, c.blocker)
					}
					chained++
				}
			}
			if n := ko.corners[f.pos].cnt; n != blocks[f.pos] || chained != n {
				t.Fatalf("%s: query %d: frontier region %d counts %d dependents and chains %d, it blocks %d", label, qi, f.region, n, chained, blocks[f.pos])
			}
		}
		st.frontier[qi], st.frontierDirty[qi], st.clock, st.order[qi] = saved, dirty, clock, savedOrder
	}
	return len(st.frontier)
}

// keptOrderQuery draws a query over dims output dimensions: a random
// non-empty preference, either join condition.
func keptOrderQuery(rng *rand.Rand, dims int, name string) workload.Query {
	var pref []int
	for len(pref) == 0 {
		pref = pref[:0]
		for d := 0; d < dims; d++ {
			if rng.Intn(2) == 0 {
				pref = append(pref, d)
			}
		}
	}
	return workload.Query{Name: name, JC: rng.Intn(2), Pref: preference.NewSubspace(pref...),
		Priority: rng.Float64(), Contract: contract.C3(10)}
}

// keptOrderOp is one entry of a random Exec schedule. Which query a cancel or
// seal picks and which rows a delete takes are resolved against the
// execution's state from arg, so a schedule replays identically on any run
// whose state is identical.
type keptOrderOp struct {
	kind  int // 0 step, 1 admit, 2 cancel, 3 seal, 4 append, 5 delete
	arg   int
	tab   Table
	query workload.Query
	rows  []TupleData
}

// TestKeptOrderIsTheSortedLiveSet is the oracle of refreshFrontier's kept
// order: at every point checkSchedules stops, each query's frontier
// refreshed from its kept order must be the one the reference
// collect-and-sort refresh derives from the current state, charging the same
// comparisons.
func TestKeptOrderIsTheSortedLiveSet(t *testing.T) {
	var checked int
	const seeds = 60
	moved, _ := checkSchedules(t, seeds, func(label string, st *state) { checked += checkFrontiers(t, label, st) })
	t.Logf("%d seeds: %d frontier checks, %d appends that moved a region's corner", seeds, checked, moved)
	if moved == 0 {
		t.Error("no append moved a corner: reviveAfterAppend's recomputation went unexercised")
	}
}

// checkLive fails unless the liveness records agree: every query's live set
// is the transpose of the regions' Alive sets (an empty set marking a region
// done), a queued region is live and has an entry in the CSM queue, and
// every live region that no dependency edge holds back is queued. The
// bounds table must hold exactly one row per region, each region's rows
// its cells' current Bounds bit for bit, and the pair index one entry per
// cell pair: each region's names it, every other is -1.
func checkLive(t *testing.T, label string, st *state) {
	t.Helper()
	sp, nd := st.space, len(st.w.OutDims)
	pairs := sp.PairIndex()
	if len(pairs) != len(sp.RCells)*len(sp.TCells) {
		t.Fatalf("%s: pair index of %d entries for %d × %d cells", label, len(pairs), len(sp.RCells), len(sp.TCells))
	}
	for ri, r := range sp.Regions {
		if at := r.RCell.ID*len(sp.TCells) + r.TCell.ID; pairs[at] != int32(ri) {
			t.Fatalf("%s: region %d over cells (%d, %d) is indexed as %d", label, ri, r.RCell.ID, r.TCell.ID, pairs[at])
		}
	}
	named := 0
	for _, e := range pairs {
		if e >= 0 {
			named++
		} else if e != -1 {
			t.Fatalf("%s: pair index entry %d", label, e)
		}
	}
	if named != len(sp.Regions) {
		t.Fatalf("%s: %d pair index entries name a region, %d regions", label, named, len(sp.Regions))
	}
	if len(sp.BoxLo) != len(st.space.Regions)*nd || len(sp.BoxHi) != len(st.space.Regions)*nd {
		t.Fatalf("%s: bounds table of %d and %d values for %d regions of %d dimensions", label, len(sp.BoxLo), len(sp.BoxHi), len(st.space.Regions), nd)
	}
	for ri, r := range st.space.Regions {
		lo, hi := sp.LoRow(ri), sp.HiRow(ri)
		for k, f := range st.w.OutDims {
			wantLo, wantHi := f.Bounds(r.RCell.Lo, r.RCell.Hi, r.TCell.Lo, r.TCell.Hi)
			if math.Float64bits(lo[k]) != math.Float64bits(wantLo) || math.Float64bits(hi[k]) != math.Float64bits(wantHi) {
				t.Fatalf("%s: region %d, dimension %d: box [%v, %v], its cells give [%v, %v]", label, ri, k, lo[k], hi[k], wantLo, wantHi)
			}
		}
	}
	lv := &st.live
	if len(lv.sets) != len(st.w.Queries) || len(lv.queued) != len(st.space.Regions) {
		t.Fatalf("%s: %d live sets for %d queries, %d queue flags for %d regions", label, len(lv.sets), len(st.w.Queries), len(lv.queued), len(st.space.Regions))
	}
	for qi, set := range lv.sets {
		if len(set) != (len(st.space.Regions)+63)/64 {
			t.Fatalf("%s: query %d: live set of %d words for %d regions", label, qi, len(set), len(st.space.Regions))
		}
		for ri, r := range st.space.Regions {
			if set.Has(ri) != r.Alive.Has(qi) {
				t.Fatalf("%s: query %d: region %d live %v, Alive %v", label, qi, ri, set.Has(ri), r.Alive)
			}
		}
	}
	entry := make([]bool, len(st.space.Regions))
	for _, it := range lv.pq.items {
		entry[it.region] = true
	}
	for ri, r := range st.space.Regions {
		switch {
		case lv.queued[ri] && r.Alive == 0:
			t.Fatalf("%s: region %d is queued and done", label, ri)
		case lv.queued[ri] && !entry[ri]:
			t.Fatalf("%s: region %d is queued without a queue entry", label, ri)
		case r.Alive != 0 && st.indegree[ri] == 0 && !lv.queued[ri]:
			t.Fatalf("%s: region %d is live (%v) with no blocker and not queued", label, ri, r.Alive)
		}
	}
}

// checkSchedules calls check, after checkLive, after every step of a batch
// run and after every operation of a random StartExec schedule of Admit,
// Cancel, Seal, Append (including rows that stretch a cell's box, moving
// region corners) and Delete, one of each per seed over generated data.
// Each run is
// repeated unchecked, and the two reports must be identical. It returns how
// many appends moved a region's corner and how many admissions and appends
// added regions to the plan.
func checkSchedules(t *testing.T, seeds int64, check func(label string, st *state)) (moved, grown int) {
	t.Helper()
	dists := []datagen.Distribution{datagen.Independent, datagen.AntiCorrelated, datagen.Correlated}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dims, dist := 3+int(seed%4), dists[seed/4%3]
		const full = 100
		base := 45 + rng.Intn(20)
		fullR, fullT, err := datagen.Pair(full, dims, dist, []float64{0.05, 0.05}, seed)
		if err != nil {
			t.Fatal(err)
		}
		var queries []workload.Query
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			q := keptOrderQuery(rng, dims, fmt.Sprintf("q%d", i))
			q.JC = 0
			queries = append(queries, q)
		}
		mkWorkload := func() *workload.Workload {
			w := &workload.Workload{
				JoinConds: []join.EquiJoin{{Name: "JC0", LeftKey: 0, RightKey: 0}, {Name: "JC1", LeftKey: 1, RightKey: 1}},
				Queries:   append([]workload.Query(nil), queries...),
			}
			for k := 0; k < dims; k++ {
				w.OutDims = append(w.OutDims, join.Sum(fmt.Sprintf("x%d", k), k))
			}
			return w
		}
		label := fmt.Sprintf("seed %d %v d=%d", seed, dist, dims)

		// A batch run, checked after every step.
		batch := func(checked bool) *run.Report {
			e := mustEngine(t, mkWorkload(), cloneRel(fullR, base), cloneRel(fullT, base), Options{})
			clock := metrics.NewClock()
			rep := run.NewReport("CAQE", e.w, nil)
			cuboid, space, filter, err := e.plan(clock, false)
			if err != nil {
				t.Fatal(err)
			}
			st := newState(e, clock, space, e.newShared(cuboid, space, clock), rep, filter)
			st.initQueue()
			for i := 0; st.step(); i++ {
				if checked {
					at := fmt.Sprintf("%s batch step %d", label, i)
					checkLive(t, at, st)
					check(at, st)
				}
			}
			st.flushRemaining()
			rep.Finish(clock.Now()/metrics.VirtualSecond, clock.Counters())
			return rep
		}
		sameReports(t, label+" batch", batch(false), batch(true))
		if ref, err := mustEngine(t, mkWorkload(), cloneRel(fullR, base), cloneRel(fullT, base), Options{}).Execute(nil); err != nil {
			t.Fatal(err)
		} else {
			sameReports(t, label+" batch vs Execute", ref, batch(false))
		}

		// A random Exec schedule.
		var ops []keptOrderOp
		next := [2]int{base, base}
		for i := 0; i < 60; i++ {
			op := keptOrderOp{kind: rng.Intn(6), arg: rng.Intn(1 << 20), tab: Table(rng.Intn(2))}
			switch op.kind {
			case 1:
				op.query = keptOrderQuery(rng, dims, fmt.Sprintf("late%d", i))
			case 4:
				src := [2]*tuple.Relation{fullR, fullT}[op.tab]
				if n := 1 + rng.Intn(4); next[op.tab]+n <= full {
					op.rows = rowsFrom(src, next[op.tab], next[op.tab]+n)
					next[op.tab] += n
				}
				if rng.Intn(3) == 0 {
					// A row below every cell on one dimension: the cell it joins
					// grows, and so do the best corners of its regions. Half of
					// them carry keys no row has, so that the append reopens
					// nothing where a delete withdrew the conditions.
					k := rng.Intn(base)
					row := rowsFrom(src, k, k+1)[0]
					row.Attrs[rng.Intn(dims)] = datagen.AttrMin / 2
					if rng.Intn(2) == 0 {
						for j := range row.Keys {
							row.Keys[j] = int64(1<<40 + i)
						}
					}
					op.rows = append(op.rows, row)
				}
			}
			ops = append(ops, op)
		}
		execRun := func(checked bool) *run.Report {
			e := mustEngine(t, mkWorkload(), cloneRel(fullR, base), cloneRel(fullT, base), Options{})
			rep := run.NewReport("CAQE", e.w, nil)
			x, err := e.StartExec(metrics.NewClock(), rep)
			if err != nil {
				t.Fatal(err)
			}
			st := x.st
			at := func(what string) {
				if checked {
					at := fmt.Sprintf("%s after %s", label, what)
					checkLive(t, at, st)
					check(at, st)
				}
			}
			at("start")
			for i, op := range ops {
				what := fmt.Sprintf("op %d", i)
				switch op.kind {
				case 0:
					for k := 0; k <= op.arg%4 && x.Step(); k++ {
						at(fmt.Sprintf("%s step %d", what, k))
					}
				case 1:
					before := len(st.space.Regions)
					if _, err := x.Admit(op.query, 0); err != nil {
						t.Fatal(err)
					}
					if checked && len(st.space.Regions) > before {
						grown++
					}
				case 2, 3:
					var picks []int
					for qi := range st.w.Queries {
						if !st.cancelled.Has(qi) && !st.sealed.Has(qi) && (op.kind == 2 || x.QueryDone(qi)) {
							picks = append(picks, qi)
						}
					}
					if len(picks) == 0 {
						continue
					}
					qi := picks[op.arg%len(picks)]
					if op.kind == 2 {
						err = x.Cancel(qi)
					} else {
						err = x.Seal(qi)
					}
					if err != nil {
						t.Fatal(err)
					}
				case 4:
					if len(op.rows) == 0 {
						continue
					}
					before := cornersOf(st)
					if _, _, err := x.Append(op.tab, op.rows); err != nil {
						t.Fatal(err)
					}
					if checked && !reflect.DeepEqual(before, cornersOf(st)[:len(before)]) {
						moved++
					}
					if checked && len(st.space.Regions) > len(before) {
						grown++
					}
				case 5:
					// A few rows, or (one delete in four) two thirds of the
					// table, which withdraws conditions from cell pairs.
					rel := st.relFor(op.tab)
					n := 1 + op.arg%3
					if op.arg%4 == 0 {
						n = rel.Len() * 2 / 3
					}
					var ids []int
					for k := 0; k < rel.Len() && len(ids) < n; k++ {
						id := (op.arg/4 + 7*k) % rel.Len()
						if !st.deleted[op.tab][id] && !slices.Contains(ids, id) {
							ids = append(ids, id)
						}
					}
					if len(ids) == 0 {
						continue
					}
					if _, err := x.Delete(op.tab, ids); err != nil {
						t.Fatal(err)
					}
				}
				at(what)
			}
			for i := 0; x.Step(); i++ {
				at(fmt.Sprintf("drain step %d", i))
			}
			x.Finish()
			return rep
		}
		sameReports(t, label+" exec", execRun(false), execRun(true))
	}
	return moved, grown
}

// cornersOf copies every region's best corner.
func cornersOf(st *state) [][]float64 {
	out := make([][]float64, len(st.space.Regions))
	for i := range st.space.Regions {
		out[i] = slices.Clone(st.space.LoRow(i))
	}
	return out
}

// sameReports fails unless two reports are identical: emissions, end time
// and counters.
func sameReports(t *testing.T, label string, a, b *run.Report) {
	t.Helper()
	if !reflect.DeepEqual(a.PerQuery, b.PerQuery) || a.EndTime != b.EndTime || a.Counters != b.Counters {
		t.Fatalf("%s: reports differ: end %v vs %v, counters\n%+v\n%+v", label, a.EndTime, b.EndTime, a.Counters, b.Counters)
	}
}
