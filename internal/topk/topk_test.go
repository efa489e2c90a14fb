package topk

import (
	"sort"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/datagen"
	"caqe/internal/join"
	"caqe/internal/run"
	"caqe/internal/tuple"
)

func testWorkload(nq int) *Workload {
	w := &Workload{
		JoinConds: []join.EquiJoin{{Name: "JC1", LeftKey: 0, RightKey: 0}},
		OutDims: []join.MapFunc{
			join.Sum("x0", 0), join.Sum("x1", 1), join.Sum("x2", 2),
		},
	}
	weights := [][]float64{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 0}, {1, 1, 1}, {2, 0, 1},
	}
	ks := []int{5, 10, 3, 8, 12, 6}
	for i := 0; i < nq; i++ {
		w.Queries = append(w.Queries, Query{
			Name:     "Q" + string(rune('1'+i)),
			JC:       0,
			Weights:  weights[i%len(weights)],
			K:        ks[i%len(ks)],
			Priority: 1 - float64(i)*0.15,
			Contract: contract.C3(20),
		})
	}
	return w
}

func testData(t *testing.T, n int, seed int64) (*tuple.Relation, *tuple.Relation) {
	t.Helper()
	r, tt, err := datagen.Pair(n, 3, datagen.Independent, []float64{0.03}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r, tt
}

// oracle computes the exact top-k of each query with a full join and sort.
func oracle(w *Workload, r, t *tuple.Relation) [][]result {
	rs := make([]*tuple.Tuple, r.Len())
	for i := range rs {
		rs[i] = r.At(i)
	}
	ts := make([]*tuple.Tuple, t.Len())
	for i := range ts {
		ts[i] = t.At(i)
	}
	out := make([][]result, len(w.Queries))
	for qi := range w.Queries {
		q := &w.Queries[qi]
		results := new(join.Scratch).NestedLoop(w.JoinConds[q.JC], w.OutDims, rs, ts, nil)
		cands := make([]result, len(results))
		for i, res := range results {
			cands[i] = result{score: q.Score(res.Out), rid: res.RID, tid: res.TID}
		}
		sort.SliceStable(cands, func(a, b int) bool { return lessResult(cands[a], cands[b]) })
		if len(cands) > q.K {
			cands = cands[:q.K]
		}
		out[qi] = cands
	}
	return out
}

func checkAgainstOracle(t *testing.T, w *Workload, rep *run.Report, want [][]result, name string) {
	t.Helper()
	for qi := range w.Queries {
		got := rep.PerQuery[qi]
		if len(got) != len(want[qi]) {
			t.Fatalf("%s query %d: %d results, oracle has %d", name, qi, len(got), len(want[qi]))
		}
		for i, e := range got {
			o := want[qi][i]
			if e.RID != o.rid || e.TID != o.tid {
				t.Fatalf("%s query %d result %d: got R%d,T%d want R%d,T%d",
					name, qi, i, e.RID, e.TID, o.rid, o.tid)
			}
		}
	}
}

func TestTopKMatchesOracle(t *testing.T) {
	for _, nq := range []int{1, 3, 6} {
		w := testWorkload(nq)
		r, tt := testData(t, 250, int64(nq))
		want := oracle(w, r, tt)
		rep, err := Run(w, r, tt, Options{TargetCells: 6}, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, w, rep, want, "CAQE-TopK")

		seq, err := Sequential(w, r, tt, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, w, seq, want, "Sequential-TopK")
	}
}

func TestTopKDataOrderMatchesOracle(t *testing.T) {
	w := testWorkload(4)
	r, tt := testData(t, 200, 9)
	want := oracle(w, r, tt)
	rep, err := Run(w, r, tt, Options{TargetCells: 6, DataOrder: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, w, rep, want, "DataOrder-TopK")
}

func TestTopKEmissionsAreOrderedAndTimely(t *testing.T) {
	w := testWorkload(4)
	r, tt := testData(t, 300, 11)
	rep, err := Run(w, r, tt, Options{TargetCells: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range w.Queries {
		q := &w.Queries[qi]
		lastScore, lastTime := -1.0, -1.0
		for _, e := range rep.PerQuery[qi] {
			s := q.Score(e.Out)
			if s < lastScore {
				t.Fatalf("query %d emitted out of score order: %g after %g", qi, s, lastScore)
			}
			if e.Time < lastTime {
				t.Fatalf("query %d emitted back in time", qi)
			}
			lastScore, lastTime = s, e.Time
		}
	}
}

func TestTopKIsProgressive(t *testing.T) {
	w := testWorkload(3)
	r, tt := testData(t, 400, 13)
	rep, err := Run(w, r, tt, Options{TargetCells: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	spread := false
	for qi := range rep.PerQuery {
		ems := rep.PerQuery[qi]
		if len(ems) >= 2 && ems[0].Time < rep.EndTime*0.9 {
			spread = true
		}
	}
	if !spread {
		t.Fatal("no query received results before the end of the run")
	}
}

func TestTopKPrunesWork(t *testing.T) {
	w := testWorkload(4)
	r, tt := testData(t, 300, 17)
	caqe, err := Run(w, r, tt, Options{TargetCells: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Sequential(w, r, tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if caqe.Counters.JoinResults >= seq.Counters.JoinResults {
		t.Errorf("CAQE-TopK materialized %d join results, sequential %d — k-th score pruning ineffective",
			caqe.Counters.JoinResults, seq.Counters.JoinResults)
	}
	if caqe.EndTime >= seq.EndTime {
		t.Errorf("CAQE-TopK slower than sequential: %g vs %g", caqe.EndTime, seq.EndTime)
	}
}

func TestTopKSatisfactionBeatsSequentialUnderDeadline(t *testing.T) {
	w := testWorkload(6)
	for qi := range w.Queries {
		w.Queries[qi].Contract = contract.C1(30)
	}
	r, tt := testData(t, 300, 19)
	caqe, err := Run(w, r, tt, Options{TargetCells: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Sequential(w, r, tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if caqe.AvgSatisfaction() <= seq.AvgSatisfaction() {
		t.Errorf("CAQE-TopK satisfaction %.3f not above sequential %.3f",
			caqe.AvgSatisfaction(), seq.AvgSatisfaction())
	}
}

func TestTopKValidation(t *testing.T) {
	r, tt := testData(t, 50, 21)
	cases := []func(*Workload){
		func(w *Workload) { w.Queries = nil },
		func(w *Workload) { w.JoinConds = nil },
		func(w *Workload) { w.Queries[0].JC = 5 },
		func(w *Workload) { w.Queries[0].Weights = []float64{1} },
		func(w *Workload) { w.Queries[0].Weights = []float64{-1, 0, 0} },
		func(w *Workload) { w.Queries[0].Weights = []float64{0, 0, 0} },
		func(w *Workload) { w.Queries[0].K = 0 },
		func(w *Workload) { w.Queries[0].Contract = nil },
	}
	for i, mut := range cases {
		w := testWorkload(2)
		mut(w)
		if _, err := Run(w, r, tt, Options{}, nil); err == nil {
			t.Errorf("case %d: invalid workload accepted", i)
		}
	}
}

func TestTopKFewerResultsThanK(t *testing.T) {
	// K larger than the join output: deliver everything, exactly once.
	w := testWorkload(1)
	w.Queries[0].K = 100000
	r, tt := testData(t, 60, 23)
	want := oracle(w, r, tt)
	rep, err := Run(w, r, tt, Options{TargetCells: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, w, rep, want, "huge-K")
}

func TestTopKDeterministic(t *testing.T) {
	w := testWorkload(4)
	r, tt := testData(t, 200, 29)
	a, err := Run(w, r, tt, Options{TargetCells: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, r, tt, Options{TargetCells: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.EndTime != b.EndTime {
		t.Fatalf("nondeterministic: %g vs %g", a.EndTime, b.EndTime)
	}
	if ok, diff := run.SameResults(a, b); !ok {
		t.Fatal(diff)
	}
}
