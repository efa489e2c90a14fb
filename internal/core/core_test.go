package core

import (
	"math"
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

func testWorkload(nq, dims int, mode workload.PriorityMode, c func(int) contract.Contract) *workload.Workload {
	return workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: nq, Dims: dims, Priority: mode, NewContract: c,
	})
}

func c3s(int) contract.Contract { return contract.C3(10) }

func testPair(t *testing.T, n, dims int, dist datagen.Distribution, sigma float64, seed int64) (*tuple.Relation, *tuple.Relation) {
	t.Helper()
	r, tt, err := datagen.Pair(n, dims, dist, []float64{sigma}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r, tt
}

func TestNewValidatesInputs(t *testing.T) {
	w := testWorkload(3, 3, workload.UniformPriority, c3s)
	r, tt := testPair(t, 50, 3, datagen.Independent, 0.05, 1)
	if _, err := New(w, nil, tt, Options{}); err == nil {
		t.Error("nil relation accepted")
	}
	if _, err := New(&workload.Workload{}, r, tt, Options{}); err == nil {
		t.Error("invalid workload accepted")
	}
	// Join condition referencing a missing key column.
	bad := *w
	bad.JoinConds = []join.EquiJoin{{Name: "JC", LeftKey: 5, RightKey: 0}}
	if _, err := New(&bad, r, tt, Options{}); err == nil {
		t.Error("out-of-range left key accepted")
	}
	bad.JoinConds = []join.EquiJoin{{Name: "JC", LeftKey: 0, RightKey: 5}}
	if _, err := New(&bad, r, tt, Options{}); err == nil {
		t.Error("out-of-range right key accepted")
	}
	// An attribute edited in place after Append, on either side.
	for _, rel := range []*tuple.Relation{r, tt} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			old := rel.At(7).Attrs[2]
			rel.At(7).Attrs[2] = v
			if _, err := New(w, r, tt, Options{}); err == nil {
				t.Errorf("%s: attribute %v accepted", rel.Schema.Name, v)
			}
			rel.At(7).Attrs[2] = old
		}
	}
	if _, err := New(w, r, tt, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.TargetCells <= 0 || o.GridResolution <= 0 || o.ExactProgCountCap == 0 || o.CmpPerResult <= 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	// Negative cap disables the exact path but must be preserved.
	o = Options{ExactProgCountCap: -1}.withDefaults()
	if o.ExactProgCountCap != -1 {
		t.Fatalf("negative cap overridden: %+v", o)
	}
}

func TestDeterministicExecution(t *testing.T) {
	w := testWorkload(4, 3, workload.HighDimsHigh, c3s)
	r, tt := testPair(t, 250, 3, datagen.Independent, 0.03, 5)
	eng, err := New(w, r, tt, Options{TargetCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.EndTime != b.EndTime {
		t.Fatalf("end times differ: %g vs %g", a.EndTime, b.EndTime)
	}
	for qi := range a.PerQuery {
		if len(a.PerQuery[qi]) != len(b.PerQuery[qi]) {
			t.Fatalf("query %d emission counts differ", qi)
		}
		for k := range a.PerQuery[qi] {
			ea, eb := a.PerQuery[qi][k], b.PerQuery[qi][k]
			if ea.Time != eb.Time || ea.RID != eb.RID || ea.TID != eb.TID {
				t.Fatalf("query %d emission %d differs: %+v vs %+v", qi, k, ea, eb)
			}
		}
	}
}

// TestEmittedResultsAreFinal: progressive emissions must never be
// invalidated — every emitted tuple is in the query's true final skyline.
// This is the paper's core progressive-reporting guarantee (§6).
func TestEmittedResultsAreFinal(t *testing.T) {
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
		w := testWorkload(4, 3, workload.LowDimsHigh, c3s)
		r, tt := testPair(t, 200, 3, dist, 0.04, 9)
		eng, err := New(w, r, tt, Options{TargetCells: 6, GridResolution: 16})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Execute(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force final skylines.
		rs := make([]*tuple.Tuple, r.Len())
		for i := range rs {
			rs[i] = r.At(i)
		}
		ts := make([]*tuple.Tuple, tt.Len())
		for i := range ts {
			ts[i] = tt.At(i)
		}
		all := new(join.Scratch).NestedLoop(w.JoinConds[0], w.OutDims, rs, ts, nil)
		for qi, q := range w.Queries {
			inSky := map[[2]int]bool{}
			for i, a := range all {
				dominated := false
				for j, b := range all {
					if i != j && preference.DominatesIn(q.Pref, b.Out, a.Out) {
						dominated = true
						break
					}
				}
				if !dominated {
					inSky[[2]int{a.RID, a.TID}] = true
				}
			}
			if len(rep.PerQuery[qi]) != len(inSky) {
				t.Fatalf("%s query %d: emitted %d, skyline has %d", dist, qi, len(rep.PerQuery[qi]), len(inSky))
			}
			for _, e := range rep.PerQuery[qi] {
				if !inSky[[2]int{e.RID, e.TID}] {
					t.Fatalf("%s query %d: emitted non-skyline tuple R%d T%d", dist, qi, e.RID, e.TID)
				}
			}
		}
	}
}

// TestAblationsPreserveCorrectness: every optimizer toggle must change only
// scheduling, never results.
func TestAblationsPreserveCorrectness(t *testing.T) {
	w := testWorkload(4, 3, workload.HighDimsHigh, c3s)
	r, tt := testPair(t, 200, 3, datagen.Independent, 0.04, 11)
	base, err := New(w, r, tt, Options{TargetCells: 6})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Options{
		{DisableFeedback: true},
		{DisableDependencyGraph: true},
		{DisableContractBenefit: true},
		{DisableRegionDiscard: true},
		{DataOrderScheduling: true},
		{ExactProgCountCap: -1},
		{GridResolution: 8},
		{TargetCells: 12},
	}
	for i, o := range variants {
		if o.TargetCells == 0 {
			o.TargetCells = 6
		}
		eng, err := New(w, r, tt, o)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Execute(nil)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range want.PerQuery {
			wk := want.ResultSet(qi)
			gk := rep.ResultSet(qi)
			if len(wk) != len(gk) {
				t.Fatalf("variant %d query %d: %d vs %d results", i, qi, len(gk), len(wk))
			}
			for j := range wk {
				if wk[j] != gk[j] {
					t.Fatalf("variant %d query %d: result %d differs", i, qi, j)
				}
			}
		}
	}
}

func TestPlan(t *testing.T) {
	w := testWorkload(4, 4, workload.UniformPriority, c3s)
	r, tt := testPair(t, 200, 4, datagen.Independent, 0.05, 13)
	eng, err := New(w, r, tt, Options{TargetCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	cuboid, space, err := eng.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if cuboid.NumQueries() != 4 {
		t.Fatalf("cuboid queries = %d", cuboid.NumQueries())
	}
	if len(space.Regions) == 0 {
		t.Fatal("no regions in the output space")
	}
}

func TestBuchta(t *testing.T) {
	// ln(x)^{d-1}/(d-1)! with clamping.
	if got := buchta(0.5, 3); got != 0.5 {
		t.Errorf("buchta(0.5,3) = %g", got)
	}
	if got := buchta(-2, 2); got != 0 {
		t.Errorf("buchta(-2,2) = %g", got)
	}
	x := math.E * math.E // ln = 2
	if got := buchta(x, 3); math.Abs(got-2) > 1e-12 {
		t.Errorf("buchta(e²,3) = %g, want 2", got) // 2²/2! = 2
	}
	if got := buchta(x, 2); math.Abs(got-2) > 1e-12 {
		t.Errorf("buchta(e²,2) = %g, want 2", got)
	}
	// Clamped to x for small inputs with high d.
	if got := buchta(2, 6); got > 2 {
		t.Errorf("buchta not clamped: %g", got)
	}
}

func TestFactorial(t *testing.T) {
	for n, want := range map[int]float64{0: 1, 1: 1, 2: 2, 3: 6, 5: 120} {
		if got := factorial(n); got != want {
			t.Errorf("factorial(%d) = %g", n, got)
		}
	}
}

func TestScoreBucket(t *testing.T) {
	cases := map[float64]int{1: 0, 1.5: 0, 2: 1, 3.9: 1, 4: 2, 0.5: -1, 0.3: -2}
	for score, want := range cases {
		if got := scoreBucket(score); got != want {
			t.Errorf("scoreBucket(%g) = %d, want %d", score, got, want)
		}
	}
	if scoreBucket(0) != -1<<30 || scoreBucket(-5) != -1<<30 {
		t.Error("non-positive scores must sink")
	}
}

// TestPaperExample20Weights reproduces Eq. 11 with the paper's numbers:
// run-time satisfactions {0, 1, 0.7, 0} turn unit weights into
// {1.43, 1, 1.13, 1.43}.
func TestPaperExample20Weights(t *testing.T) {
	vs := []float64{0, 1, 0.7, 0}
	w := []float64{1, 1, 1, 1}
	vmax := 1.0
	den := 0.0
	for _, v := range vs {
		den += vmax - v
	}
	for i := range w {
		w[i] += (vmax - vs[i]) / den
	}
	want := []float64{1.4347, 1, 1.1304, 1.4347}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 0.001 {
			t.Fatalf("weights = %v, want ≈ %v", w, want)
		}
	}
}

// TestFeedbackBoostsUnsatisfiedQueries exercises updateWeights end-to-end:
// after execution the weights of queries that struggled should exceed those
// of queries that were satisfied early (Eq. 11 accumulates toward them).
func TestFeedbackBoostsUnsatisfiedQueries(t *testing.T) {
	w := testWorkload(4, 3, workload.HighDimsHigh, func(int) contract.Contract {
		return contract.C1(5) // tight deadline: some queries will miss it
	})
	r, tt := testPair(t, 300, 3, datagen.Independent, 0.05, 17)
	eng, err := New(w, r, tt, Options{TargetCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Not asserting specific weights (internal), but feedback must not
	// break result correctness, and some query must end below perfect
	// satisfaction for the run to be meaningful.
	low := false
	for _, s := range rep.Satisfaction() {
		if s < 0.99 {
			low = true
		}
	}
	if !low {
		t.Skip("deadline not tight enough to exercise feedback at this scale")
	}
}

func TestEmptyJoinProducesEmptyReport(t *testing.T) {
	w := testWorkload(1, 2, workload.UniformPriority, c3s)
	// Disjoint key domains: R keys 0..9, T keys shifted far away.
	r := tuple.NewRelation(tuple.Schema{Name: "R", AttrNames: []string{"a0", "a1"}, KeyNames: []string{"k"}})
	tt := tuple.NewRelation(tuple.Schema{Name: "T", AttrNames: []string{"a0", "a1"}, KeyNames: []string{"k"}})
	for i := 0; i < 50; i++ {
		r.MustAppend([]float64{float64(i), float64(50 - i)}, []int64{int64(i % 10)})
		tt.MustAppend([]float64{float64(i), float64(50 - i)}, []int64{int64(100 + i%10)})
	}
	eng, err := New(w, r, tt, Options{TargetCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range rep.PerQuery {
		if len(rep.PerQuery[qi]) != 0 {
			t.Fatalf("query %d produced %d results from a disjoint join", qi, len(rep.PerQuery[qi]))
		}
	}
	if rep.Counters.JoinResults != 0 {
		t.Fatalf("join results counted: %d", rep.Counters.JoinResults)
	}
}

func TestSelectivityEstimate(t *testing.T) {
	w := testWorkload(1, 2, workload.UniformPriority, c3s)
	r, tt := testPair(t, 500, 2, datagen.Independent, 0.02, 21)
	eng, err := New(w, r, tt, Options{TargetCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Build a state to inspect the σ estimate.
	cuboid, space, err := eng.Plan()
	if err != nil {
		t.Fatal(err)
	}
	_ = cuboid
	_ = space
	st := &state{e: eng, w: w}
	sigmas := estimateSelectivities(w.JoinConds, r.Len(), tt.Len(), st)
	if len(sigmas) != 1 {
		t.Fatalf("got %d sigmas", len(sigmas))
	}
	if sigmas[0] < 0.01 || sigmas[0] > 0.04 {
		t.Fatalf("σ̂ = %g, expected ≈ 0.02", sigmas[0])
	}
}

func TestSelectivityEstimateSharedLeftKey(t *testing.T) {
	// Two join conditions over the same left key column must produce the
	// same estimates as independent passes (the left histogram is memoized
	// per key column, not per condition).
	r := tuple.NewRelation(tuple.Schema{Name: "R", AttrNames: []string{"a0"}, KeyNames: []string{"k"}})
	tt := tuple.NewRelation(tuple.Schema{Name: "T", AttrNames: []string{"a0"}, KeyNames: []string{"k0", "k1"}})
	for i := 0; i < 40; i++ {
		r.MustAppend([]float64{float64(i)}, []int64{int64(i % 5)})
		tt.MustAppend([]float64{float64(i)}, []int64{int64(i % 4), int64(i % 7)})
	}
	jcs := []join.EquiJoin{
		{Name: "jc0", LeftKey: 0, RightKey: 0},
		{Name: "jc1", LeftKey: 0, RightKey: 1},
	}
	st := &state{e: &Engine{r: r, t: tt}}
	sigmas := estimateSelectivities(jcs, r.Len(), tt.Len(), st)

	for j, jc := range jcs {
		matches := 0
		for i := 0; i < r.Len(); i++ {
			for k := 0; k < tt.Len(); k++ {
				if r.At(i).Key(jc.LeftKey) == tt.At(k).Key(jc.RightKey) {
					matches++
				}
			}
		}
		want := float64(matches) / float64(r.Len()*tt.Len())
		if sigmas[j] != want {
			t.Fatalf("σ̂[%d] = %g, want exact %g", j, sigmas[j], want)
		}
	}
}

func TestExecuteIntoQremapValidation(t *testing.T) {
	w := testWorkload(4, 3, workload.UniformPriority, c3s)
	r, tt := testPair(t, 50, 3, datagen.Independent, 0.05, 23)
	eng, err := New(w, r, tt, Options{TargetCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	clock := newTestClock()
	rep := newTestReport(w)
	if err := eng.ExecuteInto(clock, rep, []int{0}); err == nil {
		t.Fatal("short qremap accepted")
	}
}

// small helpers for tests needing raw clock/report wiring.
func newTestClock() *metrics.Clock { return metrics.NewClock() }

func newTestReport(w *workload.Workload) *run.Report {
	return run.NewReport("test", w, nil)
}
