package caqe_test

import (
	"strings"
	"testing"

	"caqe"
)

func exampleWorkload() *caqe.Workload {
	return &caqe.Workload{
		JoinConds: []caqe.EquiJoin{{Name: "JC1", LeftKey: 0, RightKey: 0}},
		OutDims: []caqe.MapFunc{
			caqe.SumDim("x0", 0),
			caqe.SumDim("x1", 1),
		},
		Queries: []caqe.Query{
			{Name: "fast", JC: 0, Pref: caqe.Dims(0, 1), Priority: 0.9, Contract: caqe.Deadline(60)},
			{Name: "slow", JC: 0, Pref: caqe.Dims(0), Priority: 0.3, Contract: caqe.LogDecay()},
		},
	}
}

func exampleData(t *testing.T) (*caqe.Relation, *caqe.Relation) {
	t.Helper()
	r, tt, err := caqe.GeneratePair(200, 2, caqe.Independent, []float64{0.03}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return r, tt
}

func TestRunEndToEnd(t *testing.T) {
	w := exampleWorkload()
	r, tt := exampleData(t)
	rep, err := caqe.Run(w, r, tt, caqe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EndTime <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	total := 0
	for _, ems := range rep.PerQuery {
		total += len(ems)
	}
	if total == 0 {
		t.Fatal("no results produced")
	}
}

func TestRunProgressiveHook(t *testing.T) {
	w := exampleWorkload()
	r, tt := exampleData(t)
	var hooked int
	rep, err := caqe.Run(w, r, tt, caqe.WithOnEmit(func(e caqe.Emission) {
		hooked++
	}))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ems := range rep.PerQuery {
		total += len(ems)
	}
	if hooked != total {
		t.Fatalf("hook saw %d of %d emissions", hooked, total)
	}
}

func TestStrategiesAndRunStrategy(t *testing.T) {
	names := caqe.StrategyNames()
	if len(names) != 6 || names[0] != caqe.StrategyCAQE || names[5] != caqe.StrategyTimeShared {
		t.Fatalf("StrategyNames() = %v", names)
	}
	w := exampleWorkload()
	r, tt := exampleData(t)
	totals, err := caqe.GroundTruth(w, r, tt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := caqe.Run(w, r, tt, caqe.WithTotals(totals))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		rep, err := caqe.RunStrategy(name, w, r, tt, caqe.WithTotals(totals))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for qi := range want.PerQuery {
			if len(rep.ResultSet(qi)) != len(want.ResultSet(qi)) {
				t.Errorf("%s query %d: %d results, want %d",
					name, qi, len(rep.ResultSet(qi)), len(want.ResultSet(qi)))
			}
		}
	}
	if _, err := caqe.RunStrategy("nope", w, r, tt); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestContractConstructors(t *testing.T) {
	cs := []caqe.Contract{
		caqe.Deadline(30),
		caqe.LogDecay(),
		caqe.SoftDeadline(10),
		caqe.RateQuota(0.1, 60),
		caqe.Hybrid(0.1, 60),
		caqe.CustomContract("mine", func(ts float64) float64 { return 0.5 }),
	}
	for _, c := range cs {
		if c.Name() == "" {
			t.Error("contract with empty name")
		}
		tr := c.NewTracker(10)
		tr.Observe(1)
		tr.Finalize(2)
		if tr.Count() != 1 {
			t.Errorf("%s: tracker count %d", c.Name(), tr.Count())
		}
	}
}

func TestMapFuncConstructors(t *testing.T) {
	r := caqe.NewRelation(caqe.Schema{Name: "R", AttrNames: []string{"a", "b"}, KeyNames: []string{"k"}})
	r.MustAppend([]float64{2, 3}, []int64{0})
	tt := caqe.NewRelation(caqe.Schema{Name: "T", AttrNames: []string{"a", "b"}, KeyNames: []string{"k"}})
	tt.MustAppend([]float64{10, 20}, []int64{0})
	rt, ttt := r.At(0), tt.At(0)
	if v := caqe.SumDim("s", 0).Eval(rt, ttt); v != 12 {
		t.Errorf("SumDim = %g", v)
	}
	if v := caqe.LeftDim("l", 1).Eval(rt, ttt); v != 3 {
		t.Errorf("LeftDim = %g", v)
	}
	if v := caqe.RightDim("r", 1).Eval(rt, ttt); v != 20 {
		t.Errorf("RightDim = %g", v)
	}
	if v := caqe.WeightedDim("w", 0, 0, 2, 1, 5).Eval(rt, ttt); v != 2*2+10+5 {
		t.Errorf("WeightedDim = %g", v)
	}
}

func TestGenerateRelation(t *testing.T) {
	rel, err := caqe.GenerateRelation(caqe.DataConfig{
		Name: "R", N: 10, Dims: 2, Distribution: caqe.Correlated,
		NumKeys: 1, KeyDomain: []int64{5}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 10 {
		t.Fatalf("generated %d rows", rel.Len())
	}
}

func TestDims(t *testing.T) {
	s := caqe.Dims(2, 0, 2)
	if len(s) != 2 || s[0] != 0 || s[1] != 2 {
		t.Fatalf("Dims = %v", s)
	}
}

func TestReadRelationCSV(t *testing.T) {
	schema := caqe.Schema{Name: "R", AttrNames: []string{"a", "b"}, KeyNames: []string{"k"}}
	rel, err := caqe.ReadRelationCSV(strings.NewReader("a,b,k\n1.5,2,7\n3,4,9\n"), schema, true)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 || rel.At(0).Attr(0) != 1.5 || rel.At(1).Key(0) != 9 {
		t.Fatalf("loaded %d rows: %+v", rel.Len(), rel.Tuples)
	}
}

func TestContractCombinatorsPublic(t *testing.T) {
	p := caqe.ProductContract(caqe.Deadline(10), caqe.LogDecay())
	tr := p.NewTracker(0)
	tr.Observe(5)
	tr.Finalize(5)
	if tr.PScore() != 1 {
		t.Fatalf("product pScore = %g", tr.PScore())
	}
	b := caqe.BlendedContract([]float64{1, 3}, caqe.Deadline(1), caqe.Deadline(100))
	tb := b.NewTracker(0)
	tb.Observe(50)
	tb.Finalize(50)
	if got := tb.PScore(); got != 0.75 {
		t.Fatalf("blended pScore = %g", got)
	}
}

func TestRunTopKPublic(t *testing.T) {
	r, tt := exampleData(t)
	w := &caqe.TopKWorkload{
		JoinConds: []caqe.EquiJoin{{Name: "JC1", LeftKey: 0, RightKey: 0}},
		OutDims:   []caqe.MapFunc{caqe.SumDim("x", 0), caqe.SumDim("y", 1)},
		Queries: []caqe.TopKQuery{
			{Name: "Q1", JC: 0, Weights: []float64{1, 1}, K: 5, Priority: 0.8,
				Contract: caqe.Deadline(60)},
		},
	}
	rep, err := caqe.RunTopK(w, r, tt)
	if err != nil {
		t.Fatal(err)
	}
	// A literal nil option (the totals slot of the old struct-options
	// signatures) is skipped, not dereferenced.
	seq, err := caqe.RunTopKSequential(w, r, tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerQuery[0]) != len(seq.PerQuery[0]) {
		t.Fatalf("topk result counts differ: %d vs %d", len(rep.PerQuery[0]), len(seq.PerQuery[0]))
	}
}

func TestSatisfactionTimelinePublic(t *testing.T) {
	w := exampleWorkload()
	r, tt := exampleData(t)
	rep, err := caqe.Run(w, r, tt, caqe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tl := rep.SatisfactionTimeline(w, nil, 4)
	if len(tl) != 4 {
		t.Fatalf("%d timeline samples", len(tl))
	}
	if tl[3].Delivered == 0 {
		t.Fatal("timeline shows no deliveries")
	}
}
