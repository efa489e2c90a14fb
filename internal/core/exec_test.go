package core

import (
	"reflect"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/datagen"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/run"
	"caqe/internal/workload"
)

// stepRun drives an Exec to completion with no dynamic activity.
func stepRun(t *testing.T, e *Engine) *run.Report {
	t.Helper()
	clock := metrics.NewClock()
	rep := run.NewReport("CAQE", e.w, nil)
	x, err := e.StartExec(clock, rep)
	if err != nil {
		t.Fatal(err)
	}
	for x.Step() {
	}
	x.Finish()
	return rep
}

// TestExecMatchesBatch is the pre-submitted acceptance bar: a stepping
// execution over the same workload must produce a report byte-identical to
// the batch path — same emissions, timestamps, counters and satisfaction.
func TestExecMatchesBatch(t *testing.T) {
	w := testWorkload(6, 4, workload.UniformPriority, c3s)
	r, tt := testPair(t, 80, 4, datagen.Independent, 0.05, 7)
	eb, err := New(w, r, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eb.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}

	w2 := testWorkload(6, 4, workload.UniformPriority, c3s)
	es, err := New(w2, r, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepped := stepRun(t, es)

	if !reflect.DeepEqual(batch.PerQuery, stepped.PerQuery) {
		t.Error("stepped emissions differ from batch")
	}
	if batch.EndTime != stepped.EndTime {
		t.Errorf("end time %v vs %v", batch.EndTime, stepped.EndTime)
	}
	if !reflect.DeepEqual(batch.Counters, stepped.Counters) {
		t.Errorf("counters differ:\nbatch:   %+v\nstepped: %+v", batch.Counters, stepped.Counters)
	}
	if !reflect.DeepEqual(batch.Satisfaction(), stepped.Satisfaction()) {
		t.Errorf("satisfaction differs: %v vs %v", batch.Satisfaction(), stepped.Satisfaction())
	}
}

// twoJCWorkload builds nq+1 queries over two join conditions: queries
// 0..nq-1 on JC1 and the last query on JC2 (so admitting it mid-run
// exercises the ExtendJC path when the session starts without it).
func twoJCWorkload(nq, dims int) *workload.Workload {
	base := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: nq + 1, Dims: dims, Priority: workload.UniformPriority, NewContract: c3s,
	})
	w := &workload.Workload{
		JoinConds: []join.EquiJoin{
			{Name: "JC1", LeftKey: 0, RightKey: 0},
			{Name: "JC2", LeftKey: 1, RightKey: 1},
		},
		OutDims: base.OutDims,
		Queries: base.Queries,
	}
	w.Queries[nq].JC = 1
	return w
}

func prefix(w *workload.Workload, n int) *workload.Workload {
	return &workload.Workload{
		JoinConds: w.JoinConds,
		OutDims:   w.OutDims,
		Queries:   append([]workload.Query(nil), w.Queries[:n]...),
	}
}

func sameResultSets(t *testing.T, label string, a, b *run.Report, qi int) {
	t.Helper()
	ka, kb := a.ResultSet(qi), b.ResultSet(qi)
	if !reflect.DeepEqual(ka, kb) {
		t.Errorf("%s: query %d result set differs: %d vs %d results", label, qi, len(ka), len(kb))
	}
	seen := map[run.ResultKey]bool{}
	for _, k := range kb {
		if seen[k] {
			t.Errorf("%s: query %d emitted %v twice", label, qi, k)
		}
		seen[k] = true
	}
}

// TestExecAdmitMidRun admits one query at various points of a running
// execution and checks the two guarantees of online admission: the late
// query's final result set equals what a from-the-start batch run delivers
// it, and the original queries' result sets are untouched. Duplicate
// emissions (which would imply a retracted-then-reissued result) fail too.
func TestExecAdmitMidRun(t *testing.T) {
	const nq, dims = 4, 4
	// Two key columns so the workload can hold two join conditions.
	r, tt, err := datagen.Pair(70, dims, datagen.Independent, []float64{0.05, 0.05}, 11)
	if err != nil {
		t.Fatal(err)
	}

	for _, newJC := range []bool{false, true} {
		var full *workload.Workload
		if newJC {
			full = twoJCWorkload(nq, dims)
		} else {
			full = workload.MustBenchmark(workload.BenchmarkConfig{
				NumQueries: nq + 1, Dims: dims, Priority: workload.UniformPriority, NewContract: c3s,
			})
		}
		ef, err := New(full, r, tt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ef.Execute(nil)
		if err != nil {
			t.Fatal(err)
		}

		for _, admitAfter := range []int{0, 1, 3, 8, 1 << 30} {
			var fresh *workload.Workload
			if newJC {
				fresh = twoJCWorkload(nq, dims)
			} else {
				fresh = workload.MustBenchmark(workload.BenchmarkConfig{
					NumQueries: nq + 1, Dims: dims, Priority: workload.UniformPriority, NewContract: c3s,
				})
			}
			late := fresh.Queries[nq]
			e, err := New(prefix(fresh, nq), r, tt, Options{})
			if err != nil {
				t.Fatal(err)
			}
			clock := metrics.NewClock()
			rep := run.NewReport("CAQE", e.w, nil)
			x, err := e.StartExec(clock, rep)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < admitAfter && x.Step(); i++ {
			}
			before := len(rep.PerQuery)
			qi, err := x.Admit(late, 0)
			if err != nil {
				t.Fatal(err)
			}
			if qi != nq || len(rep.PerQuery) != before+1 {
				t.Fatalf("admitted query index %d, report queries %d", qi, len(rep.PerQuery))
			}
			for x.Step() {
			}
			x.Finish()
			if !x.QueryDone(qi) {
				t.Errorf("admitAfter=%d newJC=%v: admitted query not done after drain", admitAfter, newJC)
			}

			label := "admit"
			if newJC {
				label = "admit+extendJC"
			}
			for q := 0; q <= nq; q++ {
				sameResultSets(t, label, ref, rep, q)
			}
		}
	}
}

// TestExecAdmitPreservesEmissions verifies the no-retraction invariant at
// the emission level: every result delivered before an admission is still
// present, at the same timestamp, afterwards.
func TestExecAdmitPreservesEmissions(t *testing.T) {
	const nq, dims = 4, 4
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: nq + 1, Dims: dims, Priority: workload.UniformPriority, NewContract: c3s,
	})
	late := w.Queries[nq]
	r, tt := testPair(t, 70, dims, datagen.Independent, 0.05, 11)
	e, err := New(prefix(w, nq), r, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clock := metrics.NewClock()
	rep := run.NewReport("CAQE", e.w, nil)
	x, err := e.StartExec(clock, rep)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && x.Step(); i++ {
	}
	snapshot := make([][]run.Emission, len(rep.PerQuery))
	for q := range rep.PerQuery {
		snapshot[q] = append([]run.Emission(nil), rep.PerQuery[q]...)
	}
	if _, err := x.Admit(late, 0); err != nil {
		t.Fatal(err)
	}
	for x.Step() {
	}
	x.Finish()
	for q := range snapshot {
		if len(rep.PerQuery[q]) < len(snapshot[q]) {
			t.Fatalf("query %d lost emissions: %d -> %d", q, len(snapshot[q]), len(rep.PerQuery[q]))
		}
		if len(snapshot[q]) > 0 && !reflect.DeepEqual(snapshot[q], rep.PerQuery[q][:len(snapshot[q])]) {
			t.Errorf("query %d: pre-admission emissions were rewritten", q)
		}
	}
}

// TestExecCancel retires one query mid-run and checks that its delivery
// stream freezes, it reports done, and the surviving queries still get
// their full batch result sets.
func TestExecCancel(t *testing.T) {
	const nq, dims = 5, 4
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: nq, Dims: dims, Priority: workload.UniformPriority, NewContract: c3s,
	})
	r, tt := testPair(t, 70, dims, datagen.Independent, 0.05, 13)
	ef, err := New(w, r, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ef.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}

	w2 := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: nq, Dims: dims, Priority: workload.UniformPriority, NewContract: c3s,
	})
	e, err := New(w2, r, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clock := metrics.NewClock()
	rep := run.NewReport("CAQE", e.w, nil)
	x, err := e.StartExec(clock, rep)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2 && x.Step(); i++ {
	}
	const victim = 1
	frozen := len(rep.PerQuery[victim])
	if err := x.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	if !x.QueryDone(victim) || !x.Cancelled(victim) {
		t.Error("cancelled query not reported done")
	}
	if err := x.Cancel(victim); err != nil {
		t.Errorf("second cancel errored: %v", err)
	}
	for x.Step() {
	}
	x.Finish()
	if got := len(rep.PerQuery[victim]); got != frozen {
		t.Errorf("cancelled query received %d results after cancellation", got-frozen)
	}
	for q := 0; q < nq; q++ {
		if q == victim {
			continue
		}
		sameResultSets(t, "cancel", ref, rep, q)
	}
}

// TestExecAdmitValidates covers admission argument validation.
func TestExecAdmitValidates(t *testing.T) {
	w := testWorkload(3, 3, workload.UniformPriority, c3s)
	r, tt := testPair(t, 40, 3, datagen.Independent, 0.05, 3)
	e, err := New(w, r, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.StartExec(metrics.NewClock(), run.NewReport("CAQE", e.w, nil))
	if err != nil {
		t.Fatal(err)
	}
	ok := workload.Query{Name: "ok", JC: 0, Pref: preference.Subspace{0, 1}, Priority: 0.5, Contract: contract.C3(10)}
	cases := []workload.Query{
		{Name: "badjc", JC: 9, Pref: ok.Pref, Priority: 0.5, Contract: ok.Contract},
		{Name: "nopref", JC: 0, Priority: 0.5, Contract: ok.Contract},
		{Name: "baddim", JC: 0, Pref: preference.Subspace{7}, Priority: 0.5, Contract: ok.Contract},
		{Name: "badprio", JC: 0, Pref: ok.Pref, Priority: 2, Contract: ok.Contract},
		{Name: "nocontract", JC: 0, Pref: ok.Pref, Priority: 0.5},
	}
	for _, q := range cases {
		if _, err := x.Admit(q, 0); err == nil {
			t.Errorf("query %s admitted", q.Name)
		}
	}
	if _, err := x.Admit(ok, 0); err != nil {
		t.Errorf("valid admission rejected: %v", err)
	}
	if err := x.Cancel(99); err == nil {
		t.Error("cancel of unknown query accepted")
	}
}

// TestStartExecRejectsDataOrder: the S-JFSL switch runs in batch only. A
// stepping execution schedules from the CSM queue over the dependency graph,
// neither of which a data-order run builds, so StartExec returns an error
// and no execution, and does not panic.
func TestStartExecRejectsDataOrder(t *testing.T) {
	w := testWorkload(3, 3, workload.UniformPriority, c3s)
	r, tt := testPair(t, 40, 3, datagen.Independent, 0.05, 3)
	e, err := New(w, r, tt, Options{DataOrderScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	if x, err := e.StartExec(metrics.NewClock(), run.NewReport("S-JFSL", e.w, nil)); err == nil || x != nil {
		t.Fatalf("StartExec with DataOrderScheduling: %v, %v; want no execution and an error", x, err)
	}
}

// TestRetiredSlotHoldsNoRecords: a cancelled query, a retired slot and a
// query with no live region left keep none of their frontier records — the
// kept corners, the region → position array, the kept set and the
// frontier — nor their ProgCount records, so an execution that binds many
// slots over its life holds records for its running queries only.
func TestRetiredSlotHoldsNoRecords(t *testing.T) {
	w := testWorkload(3, 3, workload.UniformPriority, c3s)
	r, tt := testPair(t, 120, 3, datagen.AntiCorrelated, 0.05, 5)
	e := mustEngine(t, w, r, tt, Options{})
	x, err := e.StartExec(metrics.NewClock(), run.NewReport("CAQE", e.w, nil))
	if err != nil {
		t.Fatal(err)
	}
	st := x.st
	progRecords := func(qi int) []progKept {
		if qi < len(st.kept) {
			return st.kept[qi]
		}
		return nil
	}
	holds := func(qi int) bool {
		ko := st.order[qi]
		return ko.corners != nil || ko.at != nil || ko.kept != nil || ko.n != 0 || st.frontier[qi] != nil || progRecords(qi) != nil
	}
	for i := 0; i < 3 && x.Step(); i++ {
	}
	for qi := range st.w.Queries {
		if !holds(qi) || progRecords(qi) == nil {
			t.Fatalf("query %d holds no records after three steps: nothing to release", qi)
		}
	}
	if err := x.Cancel(0); err != nil {
		t.Fatal(err)
	}
	st.retireSlot(1, x.Now())
	for qi := 0; qi < 2; qi++ {
		if holds(qi) {
			t.Errorf("query %d, gone, holds %d kept corners, %d positions, %d kept words, %d frontier corners and %d ProgCount records",
				qi, len(st.order[qi].corners), len(st.order[qi].at), len(st.order[qi].kept), len(st.frontier[qi]), len(progRecords(qi)))
		}
	}
	for x.Step() {
	}
	x.Finish()
	for qi := range st.w.Queries {
		if holds(qi) {
			t.Errorf("query %d holds records after the drain", qi)
		}
	}
}
