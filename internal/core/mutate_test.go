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
	"caqe/internal/partition"
	"caqe/internal/preference"
	"caqe/internal/region"
	"caqe/internal/run"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// cloneRel copies the first n rows of a relation into a fresh backing, so
// one generated dataset can seed many mutating runs.
func cloneRel(src *tuple.Relation, n int) *tuple.Relation {
	out := tuple.NewRelation(src.Schema)
	for i := 0; i < n; i++ {
		tp := src.At(i)
		out.MustAppend(append([]float64(nil), tp.Attrs...), append([]int64(nil), tp.Keys...))
	}
	return out
}

// rowsFrom extracts rows [from, to) of a relation as append payloads.
func rowsFrom(src *tuple.Relation, from, to int) []TupleData {
	rows := make([]TupleData, 0, to-from)
	for i := from; i < to; i++ {
		tp := src.At(i)
		rows = append(rows, TupleData{
			Attrs: append([]float64(nil), tp.Attrs...),
			Keys:  append([]int64(nil), tp.Keys...),
		})
	}
	return rows
}

// tombstone rewrites the join keys of the given rows to the side's
// reserved sentinel — the batch-reference representation of a delete,
// keeping every row ID stable.
func tombstone(rel *tuple.Relation, ids []int, sentinel int64) {
	for _, id := range ids {
		tp := rel.At(id)
		for k := range tp.Keys {
			tp.Keys[k] = sentinel
		}
	}
}

// mutStep is one schedule entry: run the engine to the (cumulative) step
// count, then apply the mutation.
type mutStep struct {
	after int
	tab   Table
	rows  []TupleData
	del   []int
}

// runWithMutations drives an execution through a mutation schedule and to
// completion, returning the report, the virtual time after the last
// mutation applied and what the deletes' repairs touched, summed.
func runWithMutations(t *testing.T, w *workload.Workload, r, tt *tuple.Relation, sched []mutStep) (*run.Report, float64, DeltaStats) {
	t.Helper()
	e, err := New(w, r, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clock := metrics.NewClock()
	rep := run.NewReport("CAQE", w, nil)
	x, err := e.StartExec(clock, rep)
	if err != nil {
		t.Fatal(err)
	}
	steps, lastMut := 0, 0.0
	var repair DeltaStats
	for _, m := range sched {
		for steps < m.after && x.Step() {
			steps++
		}
		if len(m.rows) > 0 {
			if _, _, err := x.Append(m.tab, m.rows); err != nil {
				t.Fatal(err)
			}
			checkCells(t, fmt.Sprintf("append after step %d", steps), x.st)
		}
		if len(m.del) > 0 {
			d, err := x.Delete(m.tab, m.del)
			if err != nil {
				t.Fatal(err)
			}
			checkCells(t, fmt.Sprintf("delete after step %d", steps), x.st)
			repair.EntriesRemoved += d.EntriesRemoved
			repair.Resettled += d.Resettled
		}
		lastMut = x.Now()
	}
	for x.Step() {
	}
	x.Finish()
	return rep, lastMut, repair
}

// checkCells fails unless every cell's key lists and signatures follow the
// join-group filter and the deletes: Rows[k] holds, once each, exactly the
// cell's rows whose filter mask grants key column k (deleted ones stay,
// tombstoned), so every live row sits in the lists its mask grants, and
// Sigs[k] is exactly the key set of the rows of Rows[k] that are not
// deleted.
func checkCells(t *testing.T, label string, st *state) {
	t.Helper()
	for side, cells := range [2][]*partition.Cell{st.space.RCells, st.space.TCells} {
		keep, deleted := st.filter.keep[side], st.deleted[side]
		for _, c := range cells {
			for k := range c.Rows {
				in := make(map[int]bool, len(c.Rows[k]))
				var live []int64
				for _, tp := range c.Rows[k] {
					if in[tp.ID] {
						t.Fatalf("%s: side %d cell %d lists row %d twice for key %d", label, side, c.ID, tp.ID, k)
					}
					in[tp.ID] = true
					if !deleted[tp.ID] {
						live = append(live, tp.Key(k))
					}
				}
				held := 0
				for _, tp := range c.Tuples {
					if granted := keep[tp.ID]&(1<<uint(k)) != 0; granted != in[tp.ID] {
						t.Fatalf("%s: side %d cell %d: row %d granted key %d %v, listed %v", label, side, c.ID, tp.ID, k, granted, in[tp.ID])
					}
					if in[tp.ID] {
						held++
					}
				}
				if held != len(in) {
					t.Fatalf("%s: side %d cell %d lists %d rows for key %d, %d of them its own", label, side, c.ID, len(in), k, held)
				}
				if sig := partition.NewSignature(live); !slices.Equal(sig, c.Sigs[k]) {
					t.Fatalf("%s: side %d cell %d key %d: signature %v, its live rows have %v", label, side, c.ID, k, c.Sigs[k], sig)
				}
			}
		}
	}
}

// checkIncremental asserts the mutation soundness contract for one query:
// the delivered set contains every result of the batch run over the final
// dataset, contains no duplicates (nothing double-emitted across revives),
// and any extra result — final when emitted, invalidated by a later
// mutation — was emitted no later than the last mutation and, when delR
// or delT is set, references a deleted row.
func checkIncremental(t *testing.T, label string, batch, inc *run.Report, qi int, lastMut float64, delR, delT map[int]bool) {
	t.Helper()
	seen := make(map[run.ResultKey]bool)
	for _, k := range inc.ResultSet(qi) {
		if seen[k] {
			t.Errorf("%s: query %d delivered %v twice", label, qi, k)
		}
		seen[k] = true
	}
	want := make(map[run.ResultKey]bool)
	for _, k := range batch.ResultSet(qi) {
		want[k] = true
		if !seen[k] {
			t.Errorf("%s: query %d missing batch result %v", label, qi, k)
		}
	}
	for _, e := range inc.PerQuery[qi] {
		k := run.ResultKey{RID: e.RID, TID: e.TID}
		if want[k] {
			continue
		}
		if e.Time > lastMut {
			t.Errorf("%s: query %d emitted extra %v at t=%g, after the last mutation at t=%g",
				label, qi, k, e.Time, lastMut)
		}
		if (delR != nil || delT != nil) && !delR[e.RID] && !delT[e.TID] {
			t.Errorf("%s: query %d extra %v references no deleted row", label, qi, k)
		}
	}
}

// stepOffsets are the mutation points each property test sweeps: at build
// time, mid-run at several depths, and after a full drain (the engine
// resumes from Step() == false).
var stepOffsets = []int{0, 1, 2, 5, 10, 25, 1 << 20}

// TestAppendEveryOffsetMatchesBatch pins the tentpole soundness property
// for appends: whatever step the new rows land on, the run delivers at
// least the batch result set over the final dataset, never duplicates,
// and at offset 0 (no emissions can precede the mutation) matches it
// exactly.
func TestAppendEveryOffsetMatchesBatch(t *testing.T) {
	const dims, nq, full, base = 3, 4, 60, 45
	fullR, fullT := testPair(t, full, dims, datagen.Independent, 0.05, 21)
	batch, err := mustEngine(t, testWorkload(nq, dims, workload.UniformPriority, c3s), fullR, fullT, Options{}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, off := range stepOffsets {
		w := testWorkload(nq, dims, workload.UniformPriority, c3s)
		r, tt := cloneRel(fullR, base), cloneRel(fullT, base)
		rep, lastMut, _ := runWithMutations(t, w, r, tt, []mutStep{
			{after: off, tab: TableR, rows: rowsFrom(fullR, base, full)},
			{after: off, tab: TableT, rows: rowsFrom(fullT, base, full)},
		})
		for qi := range w.Queries {
			checkIncremental(t, labelOff("append", off), batch, rep, qi, lastMut, nil, nil)
			if off == 0 {
				if !reflect.DeepEqual(batch.ResultSet(qi), rep.ResultSet(qi)) {
					t.Errorf("append@0: query %d result set differs from batch", qi)
				}
			}
		}
	}
}

// TestDeleteEveryOffsetMatchesBatch pins delete soundness: against a batch
// reference over the tombstoned final dataset, every offset's run delivers
// at least the batch set, never duplicates, and its only extras are
// results emitted before the delete that reference a deleted row.
func TestDeleteEveryOffsetMatchesBatch(t *testing.T) {
	const dims, nq, n = 3, 4, 60
	srcR, srcT := testPair(t, n, dims, datagen.Independent, 0.05, 23)
	delR, delT := []int{3, 17, 41, 58}, []int{5, 29}
	refR, refT := cloneRel(srcR, n), cloneRel(srcT, n)
	tombstone(refR, delR, TombstoneKeyR)
	tombstone(refT, delT, TombstoneKeyT)
	batch, err := mustEngine(t, testWorkload(nq, dims, workload.UniformPriority, c3s), refR, refT, Options{}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	delRSet := map[int]bool{3: true, 17: true, 41: true, 58: true}
	delTSet := map[int]bool{5: true, 29: true}

	for _, off := range stepOffsets {
		w := testWorkload(nq, dims, workload.UniformPriority, c3s)
		r, tt := cloneRel(srcR, n), cloneRel(srcT, n)
		rep, lastMut, _ := runWithMutations(t, w, r, tt, []mutStep{
			{after: off, tab: TableR, del: delR},
			{after: off, tab: TableT, del: delT},
		})
		for qi := range w.Queries {
			checkIncremental(t, labelOff("delete", off), batch, rep, qi, lastMut, delRSet, delTSet)
		}
	}
}

// TestRandomDeletesOfSkylineRowsMatchBatch is the oracle of Delete's repair.
// The fixed rows of the tests around it never own a result that alone
// dominates another, so they pass with the "re-settle what the removed
// entries dominated" step switched off; here the deleted rows are drawn from
// the ones behind the undeleted run's skyline results — the results other
// results rest on — and without that step the check reports missing batch
// results by the hundred. Per seed: the next of three distributions and two
// dimensionalities, a random size and query count, a quarter of the skyline
// rows of each side plus a few random rows, deleted in three waves (R, T, R)
// that start at every offset from build time to a full drain.
func TestRandomDeletesOfSkylineRowsMatchBatch(t *testing.T) {
	var repair DeltaStats
	dists := []datagen.Distribution{datagen.Independent, datagen.AntiCorrelated, datagen.Correlated}
	const seeds = 60
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dist, dims := dists[seed%3], 3+int(seed/3%2)
		n, nq := 50+rng.Intn(61), 2+rng.Intn(3)
		srcR, srcT := testPair(t, n, dims, dist, 0.05, seed)
		mkWorkload := func() *workload.Workload { return testWorkload(nq, dims, workload.UniformPriority, c3s) }
		full := batchReport(t, mkWorkload(), srcR, srcT)

		// A quarter of the rows behind a skyline result, a few others.
		pick := func(side func(run.Emission) int) (ids []int, set map[int]bool) {
			set = make(map[int]bool)
			behind := make(map[int]bool)
			for _, es := range full.PerQuery {
				for _, e := range es {
					if id := side(e); !behind[id] {
						behind[id] = true
						if rng.Intn(4) == 0 {
							set[id] = true
						}
					}
				}
			}
			for i := 0; i < 3; i++ {
				set[rng.Intn(n)] = true
			}
			for id := range set {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			return ids, set
		}
		delR, delRSet := pick(func(e run.Emission) int { return e.RID })
		delT, delTSet := pick(func(e run.Emission) int { return e.TID })

		refR, refT := cloneRel(srcR, n), cloneRel(srcT, n)
		tombstone(refR, delR, TombstoneKeyR)
		tombstone(refT, delT, TombstoneKeyT)
		batch := batchReport(t, mkWorkload(), refR, refT)

		for _, off := range []int{0, 1, 3, 7, 15, 40, 1 << 20} {
			w := mkWorkload()
			rep, lastMut, d := runWithMutations(t, w, cloneRel(srcR, n), cloneRel(srcT, n), []mutStep{
				{after: off, tab: TableR, del: delR[:len(delR)/2]},
				{after: off + 2, tab: TableT, del: delT},
				{after: off + 5, tab: TableR, del: delR[len(delR)/2:]},
			})
			repair.EntriesRemoved += d.EntriesRemoved
			repair.Resettled += d.Resettled
			label := fmt.Sprintf("seed %d %v d=%d n=%d nq=%d %s", seed, dist, dims, n, nq, labelOff("delete", off))
			for qi := range w.Queries {
				checkIncremental(t, label, batch, rep, qi, lastMut, delRSet, delTSet)
			}
		}
	}
	t.Logf("%d seeds × 7 offsets: %d live window entries removed, %d results re-settled", seeds, repair.EntriesRemoved, repair.Resettled)
	if repair.EntriesRemoved == 0 || repair.Resettled == 0 {
		t.Error("the repair path never ran")
	}
}

// TestMixedMutationsEveryOffsetMatchesBatch interleaves appends and
// deletes — including deleting rows that were themselves appended — and
// checks the same containment properties against a batch run over the
// final mutated dataset.
func TestMixedMutationsEveryOffsetMatchesBatch(t *testing.T) {
	const dims, nq, full, base = 3, 3, 55, 40
	fullR, fullT := testPair(t, full, dims, datagen.Independent, 0.05, 29)
	delR, delT := []int{7, 44}, []int{12, 50} // one base and one appended row per side
	refR, refT := cloneRel(fullR, full), cloneRel(fullT, full)
	tombstone(refR, delR, TombstoneKeyR)
	tombstone(refT, delT, TombstoneKeyT)
	batch, err := mustEngine(t, testWorkload(nq, dims, workload.UniformPriority, c3s), refR, refT, Options{}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, off := range stepOffsets {
		w := testWorkload(nq, dims, workload.UniformPriority, c3s)
		r, tt := cloneRel(fullR, base), cloneRel(fullT, base)
		rep, lastMut, _ := runWithMutations(t, w, r, tt, []mutStep{
			{after: off, tab: TableR, rows: rowsFrom(fullR, base, full)},
			{after: off + 3, tab: TableT, rows: rowsFrom(fullT, base, full)},
			{after: off + 6, tab: TableR, del: delR},
			{after: off + 6, tab: TableT, del: delT},
		})
		for qi := range w.Queries {
			checkIncremental(t, labelOff("mixed", off), batch, rep, qi, lastMut, nil, nil)
		}
	}
}

// TestMutationReplayByteIdentical pins deterministic replay: the same
// mutation schedule over the same data yields byte-identical reports —
// emissions, timestamps, counters.
func TestMutationReplayByteIdentical(t *testing.T) {
	const dims, nq, full, base = 3, 4, 55, 40
	fullR, fullT := testPair(t, full, dims, datagen.Independent, 0.05, 31)
	sched := func() []mutStep {
		return []mutStep{
			{after: 2, tab: TableR, rows: rowsFrom(fullR, base, full)},
			{after: 5, tab: TableT, del: []int{4, 19}},
			{after: 9, tab: TableT, rows: rowsFrom(fullT, base, full)},
		}
	}
	var reps [2]*run.Report
	for i := range reps {
		w := testWorkload(nq, dims, workload.UniformPriority, c3s)
		r, tt := cloneRel(fullR, base), cloneRel(fullT, base)
		reps[i], _, _ = runWithMutations(t, w, r, tt, sched())
	}
	if !reflect.DeepEqual(reps[0].PerQuery, reps[1].PerQuery) {
		t.Error("replay emissions differ")
	}
	if reps[0].EndTime != reps[1].EndTime {
		t.Errorf("replay end time %v vs %v", reps[0].EndTime, reps[1].EndTime)
	}
	if !reflect.DeepEqual(reps[0].Counters, reps[1].Counters) {
		t.Errorf("replay counters differ:\nfirst:  %+v\nsecond: %+v", reps[0].Counters, reps[1].Counters)
	}
}

// TestMutateValidation pins the mutation error surface: shape mismatches,
// reserved keys, non-finite attributes, and unknown / duplicate / repeated
// deletes are rejected without disturbing the run.
func TestMutateValidation(t *testing.T) {
	const dims, nq, n = 3, 2, 40
	w := testWorkload(nq, dims, workload.UniformPriority, c3s)
	r, tt := testPair(t, n, dims, datagen.Independent, 0.05, 37)
	e := mustEngine(t, w, r, tt, Options{})
	x, err := e.StartExec(metrics.NewClock(), run.NewReport("CAQE", w, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := x.Append(TableR, []TupleData{{Attrs: []float64{1}, Keys: []int64{1}}}); err == nil {
		t.Error("shape mismatch accepted")
	}
	bad := rowsFrom(r, 0, 1)
	bad[0].Keys[0] = TombstoneKeyR
	if _, _, err := x.Append(TableR, bad); err == nil {
		t.Error("reserved key accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := rowsFrom(r, 0, 1)
		bad[0].Attrs[1] = v
		if err := bad[0].Check(&r.Schema); err == nil {
			t.Errorf("Check passed attribute %v", v)
		}
		if _, _, err := x.Append(TableR, bad); err == nil {
			t.Errorf("attribute %v accepted", v)
		}
	}
	if _, err := x.Delete(TableT, []int{n + 5}); err == nil {
		t.Error("unknown row delete accepted")
	}
	if _, err := x.Delete(TableT, []int{1, 1}); err == nil {
		t.Error("duplicate delete accepted")
	}
	if _, err := x.Delete(TableT, []int{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Delete(TableT, []int{2}); err == nil {
		t.Error("repeated delete accepted")
	}
	for x.Step() {
	}
	x.Finish()
}

func labelOff(kind string, off int) string {
	if off == 1<<20 {
		return kind + "@drained"
	}
	return fmt.Sprintf("%s@%d", kind, off)
}

// The schedules below run a standing query (JC0, dims {0,1,2}) over the
// first 50 rows of a seeded two-key 80-row pair, with a second join
// condition on key column 1 that only queries admitted mid-schedule use.

func lateQuery(name string, jc int) workload.Query {
	return workload.Query{Name: name, JC: jc, Pref: preference.NewSubspace(0, 1, 2), Priority: 0.5, Contract: contract.C3(10)}
}

// standingWorkload is the standing query followed by n queries on JC1.
func standingWorkload(n int) *workload.Workload {
	standing := lateQuery("standing", 0)
	standing.Standing = true
	w := &workload.Workload{
		JoinConds: []join.EquiJoin{{Name: "JC0", LeftKey: 0, RightKey: 0}, {Name: "JC1", LeftKey: 1, RightKey: 1}},
		OutDims:   testWorkload(1, 3, workload.UniformPriority, c3s).OutDims,
		Queries:   []workload.Query{standing},
	}
	for i := 0; i < n; i++ {
		w.Queries = append(w.Queries, lateQuery(fmt.Sprintf("late%d", i), 1))
	}
	return w
}

func standingExec(t *testing.T) (x *Exec, rep *run.Report, fullR, fullT *tuple.Relation) {
	t.Helper()
	return standingExecOver(t, 31, 50)
}

// standingExecOver starts the standing query over the first base rows of
// the two-key 80-row pair of the given seed.
func standingExecOver(t *testing.T, seed int64, base int) (x *Exec, rep *run.Report, fullR, fullT *tuple.Relation) {
	t.Helper()
	fullR, fullT, err := datagen.Pair(80, 3, datagen.Independent, []float64{0.05, 0.05}, seed)
	if err != nil {
		t.Fatal(err)
	}
	w := standingWorkload(0)
	rep = run.NewReport("CAQE", w, nil)
	x, err = mustEngine(t, w, cloneRel(fullR, base), cloneRel(fullT, base), Options{}).StartExec(metrics.NewClock(), rep)
	if err != nil {
		t.Fatal(err)
	}
	return x, rep, fullR, fullT
}

func batchReport(t *testing.T, w *workload.Workload, r, tt *tuple.Relation) *run.Report {
	t.Helper()
	batch, err := mustEngine(t, w, r, tt, Options{}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

func idle(x *Exec) {
	for x.Step() {
	}
}

func mustAppend(t *testing.T, x *Exec, tab Table, rows []TupleData) {
	t.Helper()
	if _, _, err := x.Append(tab, rows); err != nil {
		t.Fatal(err)
	}
}

func mustAdmit(t *testing.T, x *Exec, q workload.Query) int {
	t.Helper()
	qi, err := x.Admit(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	return qi
}

// TestAdmitAfterUnservedAppendMatchesBatch: rows appended while no open
// query held a join condition must still reach a query admitted on that
// condition later — the regions' join cursors, not a per-condition
// "joined once" mark, decide whether they reopen.
func TestAdmitAfterUnservedAppendMatchesBatch(t *testing.T) {
	x, rep, fullR, fullT := standingExec(t)
	idle(x)
	a := mustAdmit(t, x, lateQuery("a", 1))
	idle(x)
	if err := x.Seal(a); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, x, TableR, rowsFrom(fullR, 50, 80))
	mustAppend(t, x, TableT, rowsFrom(fullT, 50, 80))
	lastMut := x.Now()
	idle(x)
	b := mustAdmit(t, x, lateQuery("b", 1))
	idle(x)
	x.Finish()

	batch := batchReport(t, standingWorkload(2), fullR, fullT)
	checkIncremental(t, "seal-append-admit", batch, rep, b, lastMut, nil, nil)
	if !reflect.DeepEqual(batch.ResultSet(b), rep.ResultSet(b)) {
		t.Errorf("query admitted after the appends delivered %d results, batch over the final data %d",
			len(rep.ResultSet(b)), len(batch.ResultSet(b)))
	}
}

// TestAppendAfterExtendJCKeepsCellPairsUnique: regions an admission adds
// for a newly tested condition must be visible to the next append's
// retest, or the pair gains a second region and its results a second
// emission.
func TestAppendAfterExtendJCKeepsCellPairsUnique(t *testing.T) {
	x, rep, fullR, fullT := standingExec(t)
	idle(x)
	mustAppend(t, x, TableR, rowsFrom(fullR, 50, 60))
	idle(x)
	a := mustAdmit(t, x, lateQuery("a", 1))
	idle(x)
	mustAppend(t, x, TableR, rowsFrom(fullR, 60, 80))
	mustAppend(t, x, TableT, rowsFrom(fullT, 50, 80))
	lastMut := x.Now()
	idle(x)
	x.Finish()

	pairs := make(map[[2]int]int)
	for _, r := range x.st.space.Regions {
		pairs[[2]int{r.RCell.ID, r.TCell.ID}]++
	}
	dup := 0
	for _, n := range pairs {
		dup += n - 1
	}
	if dup > 0 {
		t.Errorf("%d regions duplicate another region's cell pair", dup)
	}
	checkIncremental(t, "append-admit-append", batchReport(t, standingWorkload(1), fullR, fullT), rep, a, lastMut, nil, nil)
}

// TestAppendOpensFirstCellMatchesBatch: a side that starts with no rows has
// no cells and the plan no regions, so the first append to it opens the
// side's first cell (Space.AddCell re-strides the pair index) and the
// retest creates every region; a query admitted afterwards tests its new
// condition over the grown cell lists. With either side starting empty, the
// standing query and the late one deliver exactly the batch results over
// the final data, and the liveness records and the pair index agree after
// every operation.
func TestAppendOpensFirstCellMatchesBatch(t *testing.T) {
	const full, base = 80, 50
	fullR, fullT, err := datagen.Pair(full, 3, datagen.Independent, []float64{0.05, 0.05}, 31)
	if err != nil {
		t.Fatal(err)
	}
	batch := batchReport(t, standingWorkload(1), fullR, fullT)
	for _, empty := range []Table{TableR, TableT} {
		label := tableName(empty) + " empty"
		from := [2]int{base, base}
		from[empty] = 0
		rep := run.NewReport("CAQE", standingWorkload(0), nil)
		x, err := mustEngine(t, standingWorkload(0), cloneRel(fullR, from[0]), cloneRel(fullT, from[1]), Options{}).StartExec(metrics.NewClock(), rep)
		if err != nil {
			t.Fatal(err)
		}
		checkLive(t, label+" at start", x.st)
		idle(x)
		for _, tab := range []Table{empty, 1 - empty} {
			mustAppend(t, x, tab, rowsFrom([2]*tuple.Relation{fullR, fullT}[tab], from[tab], full))
			checkLive(t, label+" after the append to "+tableName(tab), x.st)
		}
		if n := len(x.st.cellsFor(empty)); n != 1 {
			t.Fatalf("%s: the appends opened %d cells on the empty side, want 1", label, n)
		}
		lastMut := x.Now()
		idle(x)
		if late := mustAdmit(t, x, lateQuery("late0", 1)); x.ReportIndex(late) != 1 {
			t.Fatalf("%s: the late query reports as query %d, its batch twin is query 1", label, x.ReportIndex(late))
		}
		checkLive(t, label+" after the admission", x.st)
		idle(x)
		checkLive(t, label+" after the drain", x.st)
		x.Finish()
		for qi := range batch.PerQuery {
			checkIncremental(t, label, batch, rep, qi, lastMut, nil, nil)
			if got, want := rep.ResultSet(qi), batch.ResultSet(qi); len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: query %d delivered %d results, batch over the final data %d", label, qi, len(got), len(want))
			}
		}
	}
}

// TestAdmitKeepsUnsealedDoneSlot: with every slot taken, a query that is
// done but not sealed — a standing query awaiting the next mutation —
// must not lose its slot to the next admission, mutation or no mutation.
func TestAdmitKeepsUnsealedDoneSlot(t *testing.T) {
	x, rep, fullR, _ := standingExec(t)
	for len(x.st.w.Queries) < workload.MaxQueries {
		mustAdmit(t, x, lateQuery(fmt.Sprintf("q%d", len(x.st.w.Queries)), 1))
	}
	idle(x)
	if !x.QueryDone(0) {
		t.Fatal("standing query not done after drain")
	}
	if _, err := x.Admit(lateQuery("overflow", 1), 0); err != ErrQuerySlotsExhausted {
		t.Fatalf("admission with 64 unsealed queries: err = %v, want ErrQuerySlotsExhausted", err)
	}
	if err := x.Seal(5); err != nil {
		t.Fatal(err)
	}
	if qi := mustAdmit(t, x, lateQuery("reuse", 1)); qi != 5 {
		t.Errorf("admission reclaimed slot %d, want the sealed slot 5", qi)
	}
	// The standing query kept its slot: an append still streams to it.
	before := len(rep.PerQuery[0])
	mustAppend(t, x, TableR, rowsFrom(fullR, 50, 80))
	idle(x)
	if x.ReportIndex(0) != 0 || len(rep.PerQuery[0]) < before {
		t.Error("standing query lost its slot or its stream")
	}
}

// TestSlotReuseRebindsQueryDims: the per-dimension query sets every region
// pair test reads must follow each slot's current preference. All 64 slots
// are filled, then slots are cancelled or sealed and re-admitted with a
// preference on other dimensions; after every Admit the state's sets equal
// a recomputation from the workload's queries. A reclaimed slot that kept
// its predecessor's dimensions would change charges and the schedule but no
// result set, so only this comparison sees it.
func TestSlotReuseRebindsQueryDims(t *testing.T) {
	x, _, _, _ := standingExec(t)
	prefs := []preference.Subspace{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}}
	check := func(label string) {
		t.Helper()
		w := x.st.w
		if want := region.NewQueryDims(w.Queries, len(w.OutDims)); !slices.Equal(x.st.uses, want) {
			t.Fatalf("%s: query sets per dimension %v, recomputed from the queries %v", label, x.st.uses, want)
		}
	}
	for i := 0; len(x.st.w.Queries) < workload.MaxQueries; i++ {
		q := lateQuery(fmt.Sprintf("q%d", i), 1)
		q.Pref = prefs[i%len(prefs)]
		mustAdmit(t, x, q)
		check(fmt.Sprintf("fill %d", i))
	}
	idle(x)
	for round := 0; round < 30; round++ {
		slot := 1 + round*7%63 // never the standing query
		var err error
		if round%2 == 0 {
			err = x.Cancel(slot)
		} else {
			err = x.Seal(slot)
		}
		if err != nil {
			t.Fatal(err)
		}
		q := lateQuery(fmt.Sprintf("r%d", round), 1)
		q.Pref = prefs[round%len(prefs)]
		if q.Pref.Equal(x.st.w.Queries[slot].Pref) {
			q.Pref = prefs[(round+1)%len(prefs)]
		}
		if qi := mustAdmit(t, x, q); qi != slot {
			t.Fatalf("round %d: admission took slot %d, want the freed slot %d", round, qi, slot)
		}
		check(fmt.Sprintf("round %d", round))
		idle(x)
	}
}

// TestAdmitAfterDeleteSkipsDeletedResults: results of deleted rows stay in
// the payload history but must not be seeded into a query admitted after
// the delete, where they would pose as (and dominate) live results.
func TestAdmitAfterDeleteSkipsDeletedResults(t *testing.T) {
	x, rep, fullR, fullT := standingExec(t)
	idle(x)
	var del []int
	delSet := make(map[int]bool)
	for _, e := range rep.PerQuery[0] {
		if !delSet[e.RID] {
			delSet[e.RID] = true
			del = append(del, e.RID)
		}
	}
	if _, err := x.Delete(TableR, del); err != nil {
		t.Fatal(err)
	}
	idle(x)
	b := mustAdmit(t, x, lateQuery("b", 0))
	idle(x)
	x.Finish()

	refR := cloneRel(fullR, 50)
	tombstone(refR, del, TombstoneKeyR)
	batch := batchReport(t, standingWorkload(0), refR, cloneRel(fullT, 50))
	if !reflect.DeepEqual(batch.ResultSet(0), rep.ResultSet(b)) {
		t.Errorf("query admitted after the delete got %v, batch over the tombstoned data %v", rep.ResultSet(b), batch.ResultSet(0))
	}
}

// TestAdmitAfterHeavyDeleteMatchesBatch: a delete must take the deleted
// rows' keys out of their cells' signatures and withdraw the conditions a
// cell pair no longer passes. Left in place, a pair whose only matches were
// deleted keeps posing as a source of results, and a query admitted
// afterwards — on a condition tested only now (ExtendJC) or on the standing
// query's own — is pruned against regions that can produce nothing and
// misses results. With most of both sides gone that is the common case:
// before the fix 31 of the 160 result sets below differed from the batch run.
func TestAdmitAfterHeavyDeleteMatchesBatch(t *testing.T) {
	differ := 0
	for seed := int64(1); seed <= 80; seed++ {
		x, rep, fullR, fullT := standingExecOver(t, seed, 80)
		idle(x)
		rng := rand.New(rand.NewSource(seed))
		var del [2][]int
		for side := range del {
			for id := 0; id < 80; id++ {
				if rng.Intn(10) < 7 {
					del[side] = append(del[side], id)
				}
			}
		}
		if _, err := x.Delete(TableR, del[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Delete(TableT, del[1]); err != nil {
			t.Fatal(err)
		}
		idle(x)
		b := mustAdmit(t, x, lateQuery("b", 1))
		idle(x)
		c := mustAdmit(t, x, lateQuery("c", 0))
		idle(x)
		x.Finish()

		refR, refT := cloneRel(fullR, 80), cloneRel(fullT, 80)
		tombstone(refR, del[0], TombstoneKeyR)
		tombstone(refT, del[1], TombstoneKeyT)
		w := standingWorkload(1)
		w.Queries = append(w.Queries, lateQuery("c", 0))
		batch := batchReport(t, w, refR, refT)
		for _, q := range []struct{ inc, ref int }{{b, 1}, {c, 2}} {
			if got, want := rep.ResultSet(q.inc), batch.ResultSet(q.ref); !reflect.DeepEqual(got, want) {
				differ++
				t.Errorf("seed %d: %q admitted after the deletes got %d results, batch over the tombstoned data %d",
					seed, w.Queries[q.ref].Name, len(got), len(want))
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of 160 result sets differ", differ)
	}
}
