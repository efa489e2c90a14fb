package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"caqe/internal/baseline"
	"caqe/internal/contract"
	"caqe/internal/core"
	"caqe/internal/datagen"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/run"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// The join-group filter's oracle tests: every run is checked against
// baseline.GroundTruth, which joins every row, unfiltered.

// Data shapes of the filter's oracle inputs.
const (
	shapePlain   = iota // the generator's attributes
	shapeInteger        // attributes cut to six integer levels: ties everywhere
	shapeSpread         // one side offset by 2^40, the other with shadow rows
)

// spreadOffset puts one side's attributes where an ulp is 2^-12: a shadow
// row 1e-9 above its original on every attribute then yields the very
// output points its original does, and only the margin keeps it.
const spreadOffset = 1 << 40

// shapePair generates a pair of n rows per side and reshapes it. In the
// spread shape, side `big` is offset and the other gains a shadow of every
// fourth row: the same keys, every attribute 1e-9 higher.
func shapePair(t *testing.T, n, dims int, dist datagen.Distribution, sels []float64, seed int64, shape, big int) (*tuple.Relation, *tuple.Relation) {
	t.Helper()
	r, tt, err := datagen.Pair(n, dims, dist, sels, seed)
	if err != nil {
		t.Fatal(err)
	}
	rels := [2]*tuple.Relation{r, tt}
	switch shape {
	case shapeInteger:
		for _, rel := range rels {
			for i := range rel.Tuples {
				for k, v := range rel.Tuples[i].Attrs {
					rel.Tuples[i].Attrs[k] = math.Floor(v * 6)
				}
			}
		}
	case shapeSpread:
		for i := range rels[big].Tuples {
			for k := range rels[big].Tuples[i].Attrs {
				rels[big].Tuples[i].Attrs[k] += spreadOffset
			}
		}
		small := rels[1-big]
		for i := 0; i < n; i += 4 {
			src := small.At(i)
			attrs := slices.Clone(src.Attrs)
			for k := range attrs {
				attrs[k] += 1e-9
			}
			small.MustAppend(attrs, slices.Clone(src.Keys))
		}
	}
	return r, tt
}

// oracleWorkload builds nq queries with random preferences of one to three
// of dims Sum dimensions, on random conditions of the key columns. With
// oneSided set, one more dimension reads a single side (LeftOnly or
// RightOnly, by seed parity), which turns the filter off for the other
// side, and the first query prefers that dimension alone: ties on it are
// all skyline results, whatever the other side's rows are like.
func oracleWorkload(rng *rand.Rand, dims, nkeys, nq int, oneSided bool) *workload.Workload {
	w := &workload.Workload{}
	for k := 0; k < nkeys; k++ {
		w.JoinConds = append(w.JoinConds, join.EquiJoin{Name: fmt.Sprintf("JC%d", k), LeftKey: k, RightKey: k})
	}
	for d := 0; d < dims; d++ {
		w.OutDims = append(w.OutDims, join.Sum(fmt.Sprintf("d%d", d), d))
	}
	if oneSided {
		if rng.Intn(2) == 0 {
			w.OutDims = append(w.OutDims, join.LeftOnly("left", dims-1))
		} else {
			w.OutDims = append(w.OutDims, join.RightOnly("right", dims-1))
		}
	}
	for qi := 0; qi < nq; qi++ {
		pref := preference.NewSubspace(len(w.OutDims) - 1)
		if qi > 0 || !oneSided {
			var ds []int
			for _, d := range rng.Perm(len(w.OutDims))[:1+rng.Intn(3)] {
				ds = append(ds, d)
			}
			slices.Sort(ds)
			pref = preference.NewSubspace(ds...)
		}
		w.Queries = append(w.Queries, workload.Query{
			Name: fmt.Sprintf("q%d", qi), JC: rng.Intn(nkeys), Pref: pref,
			Priority: rng.Float64(), Contract: contract.C3(10),
		})
	}
	return w
}

// stepped runs the engine through StartExec and Step to the end.
func stepped(t *testing.T, e *core.Engine, w *workload.Workload) *run.Report {
	t.Helper()
	rep := run.NewReport("CAQE", w, nil)
	x, err := e.StartExec(metrics.NewClock(), rep)
	if err != nil {
		t.Fatal(err)
	}
	for x.Step() {
	}
	x.Finish()
	return rep
}

// TestJoinGroupFilterMatchesGroundTruth runs batch Run and a stepped Exec
// over every combination of distribution, data shape, key groups (sel 0.1,
// 0.5, and two key columns of sel 1 and 0.2) and mapping set (all Sum, or
// one more that reads one side), and requires GroundTruth's result set of
// every query. Plain `<` in place of the margin fails the spread shape;
// applying the rule to a side a mapping does not read fails the one-sided
// mappings.
func TestJoinGroupFilterMatchesGroundTruth(t *testing.T) {
	dists := []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated}
	selSets := [][]float64{{0.1}, {0.5}, {1, 0.2}}
	var dropped, oneKeyOnly, rows int
	seed := int64(0)
	for _, dist := range dists {
		for shape := shapePlain; shape <= shapeSpread; shape++ {
			for _, sels := range selSets {
				for _, oneSided := range []bool{false, true} {
					seed++
					rng := rand.New(rand.NewSource(seed))
					dims, n := 3+rng.Intn(2), 40+rng.Intn(30)
					r, tt := shapePair(t, n, dims, dist, sels, seed, shape, int(seed%2))
					w := oracleWorkload(rng, dims, len(sels), 2+rng.Intn(4), oneSided)
					label := fmt.Sprintf("seed %d %v shape %d sels %v oneSided %v", seed, dist, shape, sels, oneSided)

					truth, totals, err := baseline.GroundTruthReport(w, r, tt)
					if err != nil {
						t.Fatal(err)
					}
					e, err := core.New(w, r, tt, core.Options{TargetCells: 6})
					if err != nil {
						t.Fatal(err)
					}
					batch, err := e.Execute(totals)
					if err != nil {
						t.Fatal(err)
					}
					for name, rep := range map[string]*run.Report{"Run": batch, "Exec": stepped(t, e, w)} {
						if ok, diff := run.SameResults(truth, rep); !ok {
							t.Errorf("%s, %s: %s", label, name, diff)
						}
					}

					rs, ts := core.Survivors(w, r, tt, nil)
					for side, lists := range [2][][]*tuple.Tuple{rs, ts} {
						rel := [2]*tuple.Relation{r, tt}[side]
						rows += rel.Len()
						in := make([]int, rel.Len())
						for _, list := range lists {
							dropped += rel.Len() - len(list)
							for _, tp := range list {
								in[tp.ID]++
							}
						}
						for _, c := range in {
							if len(lists) == 2 && c == 1 {
								oneKeyOnly++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d rows: %d (row, key column) pairs dropped, %d rows kept for one key column only", rows, dropped, oneKeyOnly)
	if dropped == 0 || oneKeyOnly == 0 {
		t.Error("the filter never dropped a row, or never split a row's key columns")
	}
}

// deltaRun drives a stepped execution through a schedule of mutations and
// checks it against GroundTruth over the relations as the mutations left
// them (the engine appends to and tombstones the relations it was given):
// every result delivered, none twice, and an extra result only if it was
// emitted no later than the last mutation — and, for a delete-only
// schedule, references a deleted row.
type delta struct {
	after int
	tab   core.Table
	rows  []core.TupleData
	del   []int
}

func deltaRun(t *testing.T, label string, w *workload.Workload, r, tt *tuple.Relation, sched []delta) []core.DeltaStats {
	t.Helper()
	e, err := core.New(w, r, tt, core.Options{TargetCells: 6})
	if err != nil {
		t.Fatal(err)
	}
	rep := run.NewReport("CAQE", w, nil)
	x, err := e.StartExec(metrics.NewClock(), rep)
	if err != nil {
		t.Fatal(err)
	}
	steps, lastMut := 0, 0.0
	var stats []core.DeltaStats
	deleted := [2]map[int]bool{{}, {}}
	appends := false
	for _, m := range sched {
		for steps < m.after && x.Step() {
			steps++
		}
		if len(m.rows) > 0 {
			appends = true
			_, d, err := x.Append(m.tab, m.rows)
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, d)
		}
		if len(m.del) > 0 {
			d, err := x.Delete(m.tab, m.del)
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, d)
			for _, id := range m.del {
				deleted[m.tab][id] = true
			}
		}
		lastMut = x.Now()
	}
	for x.Step() {
	}
	x.Finish()

	truth, _, err := baseline.GroundTruthReport(w, r, tt)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range w.Queries {
		seen := make(map[run.ResultKey]bool)
		for _, k := range rep.ResultSet(qi) {
			if seen[k] {
				t.Errorf("%s: query %d delivered %v twice", label, qi, k)
			}
			seen[k] = true
		}
		want := make(map[run.ResultKey]bool)
		for _, k := range truth.ResultSet(qi) {
			want[k] = true
			if !seen[k] {
				t.Errorf("%s: query %d missing ground-truth result %v", label, qi, k)
			}
		}
		for _, em := range rep.PerQuery[qi] {
			k := run.ResultKey{RID: em.RID, TID: em.TID}
			if want[k] {
				continue
			}
			if em.Time > lastMut {
				t.Errorf("%s: query %d emitted extra %v at t=%g, after the last mutation at t=%g", label, qi, k, em.Time, lastMut)
			}
			if !appends && !deleted[0][em.RID] && !deleted[1][em.TID] {
				t.Errorf("%s: query %d extra %v references no deleted row", label, qi, k)
			}
		}
	}
	return stats
}

// soleBeaters returns, per side, the kept rows that are the only kept row
// of their group beating some row the filter dropped — the rows whose
// delete must re-admit another.
func soleBeaters(w *workload.Workload, r, tt *tuple.Relation) [2][]int {
	rs, ts := core.Survivors(w, r, tt, nil)
	var out [2][]int
	for side, lists := range [2][][]*tuple.Tuple{rs, ts} {
		rel := [2]*tuple.Relation{r, tt}[side]
		sole := make(map[int]bool)
		for k, list := range lists {
			if list == nil {
				continue
			}
			kept := make(map[int]bool)
			for _, tp := range list {
				kept[tp.ID] = true
			}
			for i := range rel.Tuples {
				x := rel.At(i)
				if kept[i] {
					continue
				}
				var beaters []int
				for _, y := range list {
					if y.Key(k) == x.Key(k) && allBelow(y.Attrs, x.Attrs) {
						beaters = append(beaters, y.ID)
					}
				}
				if len(beaters) == 1 {
					sole[beaters[0]] = true
				}
			}
		}
		for id := range sole {
			out[side] = append(out[side], id)
		}
		slices.Sort(out[side])
	}
	return out
}

func allBelow(a, b []float64) bool {
	for i := range a {
		if !(a[i] < b[i]) {
			return false
		}
	}
	return true
}

// TestDeletesReadmitAgainstGroundTruth is TestRandomDeletesOfSkylineRowsMatchBatch
// with large key groups (sel 0.5 and 1, where the filter drops most rows) and
// deleted rows that include the only kept beater of some dropped rows: each
// such delete must re-admit what that row alone kept out. Removing the
// re-admission reports missing ground-truth results.
func TestDeletesReadmitAgainstGroundTruth(t *testing.T) {
	dists := []datagen.Distribution{datagen.Independent, datagen.AntiCorrelated, datagen.Correlated}
	readmitted := 0
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dist, dims := dists[seed%3], 3+int(seed/3%2)
		n, sel := 40+rng.Intn(40), []float64{0.5, 1}[seed/6%2]
		w := oracleWorkload(rng, dims, 1, 2+rng.Intn(3), false)
		mk := func() (*tuple.Relation, *tuple.Relation) {
			r, tt, err := datagen.Pair(n, dims, dist, []float64{sel}, seed)
			if err != nil {
				t.Fatal(err)
			}
			return r, tt
		}
		r, tt := mk()
		full, _, err := baseline.GroundTruthReport(w, r, tt)
		if err != nil {
			t.Fatal(err)
		}
		sole := soleBeaters(w, r, tt)
		var del [2][]int
		for side := range del {
			set := make(map[int]bool)
			for _, id := range sole[side] {
				if rng.Intn(2) == 0 {
					set[id] = true
				}
			}
			for _, es := range full.PerQuery {
				for _, em := range es {
					if rng.Intn(4) == 0 {
						set[[2]int{em.RID, em.TID}[side]] = true
					}
				}
			}
			set[rng.Intn(n)] = true
			for id := range set {
				del[side] = append(del[side], id)
			}
			slices.Sort(del[side])
		}
		for _, off := range []int{0, 2, 9, 1 << 20} {
			r, tt := mk()
			label := fmt.Sprintf("seed %d %v d=%d n=%d sel=%g delete@%d", seed, dist, dims, n, sel, off)
			stats := deltaRun(t, label, w, r, tt, []delta{
				{after: off, tab: core.TableR, del: del[0][:len(del[0])/2]},
				{after: off + 2, tab: core.TableT, del: del[1]},
				{after: off + 5, tab: core.TableR, del: del[0][len(del[0])/2:]},
			})
			for _, d := range stats {
				readmitted += d.CellsTouched
			}
		}
	}
	if readmitted == 0 {
		t.Error("no delete touched a cell")
	}
}

// TestAppendsAgainstGroundTruth appends, at several offsets, (a) a copy of
// a kept row made worse on every attribute, which the filter drops and
// which so touches no cell; (b) a copy made better on every attribute,
// which beats rows the filter keeps (they stay kept); and (c) a T row at
// -2^40 on every attribute, whose magnitude breaks the margin under which
// an R row 1e-9 above a best row was dropped: the wider margin must
// re-admit it, since at that magnitude both give the same output points.
func TestAppendsAgainstGroundTruth(t *testing.T) {
	const dims = 3
	for seed := int64(0); seed < 9; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dist := []datagen.Distribution{datagen.Independent, datagen.AntiCorrelated, datagen.Correlated}[seed%3]
		w := oracleWorkload(rng, dims, 1, 3, false)
		mk := func() (*tuple.Relation, *tuple.Relation) {
			r, tt, err := datagen.Pair(50, dims, dist, []float64{0.5}, seed)
			if err != nil {
				t.Fatal(err)
			}
			key := r.At(0).Keys
			r.MustAppend([]float64{0, 0, 0}, slices.Clone(key))
			r.MustAppend([]float64{1e-9, 1e-9, 1e-9}, slices.Clone(key))
			return r, tt
		}
		r, _ := mk()
		rs, _ := core.Survivors(w, r, r, nil)
		if slices.ContainsFunc(rs[0], func(tp *tuple.Tuple) bool { return tp.ID == r.Len()-1 }) {
			t.Fatalf("seed %d: the row 1e-9 above a best row is kept before the wide partner arrives", seed)
		}
		kept := rs[0][rng.Intn(len(rs[0]))]
		shifted := func(by float64) []core.TupleData {
			attrs := slices.Clone(kept.Attrs)
			for k := range attrs {
				attrs[k] += by
			}
			return []core.TupleData{{Attrs: attrs, Keys: slices.Clone(kept.Keys)}}
		}
		wide := []core.TupleData{{Attrs: []float64{-spreadOffset, -spreadOffset, -spreadOffset}, Keys: slices.Clone(r.At(0).Keys)}}
		for _, off := range []int{0, 3, 1 << 20} {
			for _, c := range []struct {
				name  string
				tab   core.Table
				rows  []core.TupleData
				touch bool
			}{
				{"dominated", core.TableR, shifted(0.5), false},
				{"dominating", core.TableR, shifted(-0.5), true},
				{"wide-partner", core.TableT, wide, true},
			} {
				r, tt := mk()
				label := fmt.Sprintf("seed %d %v %s append@%d", seed, dist, c.name, off)
				stats := deltaRun(t, label, w, r, tt, []delta{{after: off, tab: c.tab, rows: c.rows}})
				if got := stats[0].CellsTouched > 0; got != c.touch {
					t.Errorf("%s: cells touched %d", label, stats[0].CellsTouched)
				}
			}
		}
	}
}
