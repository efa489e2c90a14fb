package workload

import (
	"testing"

	"caqe/internal/contract"
	"caqe/internal/join"
	"caqe/internal/preference"
)

func c2(int) contract.Contract { return contract.C2() }

func validWorkload() *Workload {
	return &Workload{
		JoinConds: []join.EquiJoin{{Name: "JC1", LeftKey: 0, RightKey: 0}},
		OutDims:   []join.MapFunc{join.Sum("x0", 0), join.Sum("x1", 1)},
		Queries: []Query{
			{Name: "Q1", JC: 0, Pref: preference.NewSubspace(0, 1), Priority: 0.8, Contract: contract.C2()},
			{Name: "Q2", JC: 0, Pref: preference.NewSubspace(0), Priority: 0.3, Contract: contract.C2()},
		},
	}
}

func TestValidateAcceptsValid(t *testing.T) {
	if err := validWorkload().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Workload)
	}{
		{"no queries", func(w *Workload) { w.Queries = nil }},
		{"no join conds", func(w *Workload) { w.JoinConds = nil }},
		{"bad JC index", func(w *Workload) { w.Queries[0].JC = 3 }},
		{"negative JC index", func(w *Workload) { w.Queries[0].JC = -1 }},
		{"empty pref", func(w *Workload) { w.Queries[0].Pref = nil }},
		{"pref out of range", func(w *Workload) { w.Queries[0].Pref = preference.NewSubspace(5) }},
		{"priority too big", func(w *Workload) { w.Queries[0].Priority = 1.5 }},
		{"priority negative", func(w *Workload) { w.Queries[0].Priority = -0.1 }},
		{"nil contract", func(w *Workload) { w.Queries[0].Contract = nil }},
		{"bad mapping", func(w *Workload) { w.OutDims[0].LeftW = -1 }},
	}
	for _, c := range cases {
		w := validWorkload()
		c.mut(w)
		if err := w.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestValidateAdmissionCapBoundary(t *testing.T) {
	// The session subsystem admits queries one at a time up to MaxQueries
	// (QSet is a 64-bit mask), so the boundary itself must be exact: a
	// workload of exactly MaxQueries validates, one more does not.
	w := validWorkload()
	q := w.Queries[0]
	w.Queries = nil
	for i := 0; i < MaxQueries; i++ {
		w.Queries = append(w.Queries, q)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("exactly MaxQueries queries rejected: %v", err)
	}
	w.Queries = append(w.Queries, q)
	if err := w.Validate(); err == nil {
		t.Errorf("%d queries accepted past the %d-query cap", len(w.Queries), MaxQueries)
	}
}

func TestPriorityBands(t *testing.T) {
	cases := map[float64]string{
		1.0: "HIGH", 0.7: "HIGH", 0.69: "MEDIUM", 0.4: "MEDIUM", 0.39: "LOW", 0: "LOW",
	}
	for p, want := range cases {
		if got := PriorityBand(p); got != want {
			t.Errorf("PriorityBand(%g) = %s, want %s", p, got, want)
		}
	}
}

func TestPrefs(t *testing.T) {
	w := validWorkload()
	prefs := w.Prefs()
	if len(prefs) != 2 || !prefs[0].Equal(preference.NewSubspace(0, 1)) {
		t.Fatalf("Prefs = %v", prefs)
	}
}

func TestQueriesWithJC(t *testing.T) {
	w := validWorkload()
	w.JoinConds = append(w.JoinConds, join.EquiJoin{Name: "JC2", LeftKey: 0, RightKey: 0})
	w.Queries[1].JC = 1
	if s := w.QueriesWithJC(0); !s.Has(0) || s.Has(1) {
		t.Errorf("QueriesWithJC(0) = %s", s)
	}
	if s := w.QueriesWithJC(1); s.Has(0) || !s.Has(1) {
		t.Errorf("QueriesWithJC(1) = %s", s)
	}
}

func TestByPriorityDescending(t *testing.T) {
	w := validWorkload()
	w.Queries[0].Priority = 0.2
	w.Queries[1].Priority = 0.9
	order := w.ByPriority()
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("ByPriority = %v", order)
	}
	// Ties broken by query index.
	w.Queries[0].Priority = 0.5
	w.Queries[1].Priority = 0.5
	order = w.ByPriority()
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("tie break = %v", order)
	}
}

func TestEnumeratePreferencesCounts(t *testing.T) {
	// Subsets with cardinality ≥ 2 of d dims: 2^d - 1 - d.
	for d := 2; d <= 6; d++ {
		want := (1 << uint(d)) - 1 - d
		if got := len(EnumeratePreferences(d)); got != want {
			t.Errorf("d=%d: %d preferences, want %d", d, got, want)
		}
	}
}

func TestEnumeratePreferencesOrdering(t *testing.T) {
	prefs := EnumeratePreferences(4)
	// Cardinality must be non-decreasing; first six are pairs, then four
	// triples, then the full space — the paper's 11-query headline layout.
	if len(prefs) != 11 {
		t.Fatalf("d=4 yields %d preferences", len(prefs))
	}
	for i := 1; i < len(prefs); i++ {
		if len(prefs[i]) < len(prefs[i-1]) {
			t.Fatalf("cardinality decreases at %d", i)
		}
	}
	if len(prefs[5]) != 2 || len(prefs[6]) != 3 || len(prefs[10]) != 4 {
		t.Fatalf("layout wrong: %v", prefs)
	}
}

func TestBenchmarkGenerator(t *testing.T) {
	w, err := Benchmark(BenchmarkConfig{NumQueries: 11, Dims: 4, Priority: HighDimsHigh, NewContract: c2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 11 || len(w.OutDims) != 4 || len(w.JoinConds) != 1 {
		t.Fatalf("workload shape: %d queries, %d dims, %d JCs", len(w.Queries), len(w.OutDims), len(w.JoinConds))
	}
}

func TestBenchmarkErrors(t *testing.T) {
	if _, err := Benchmark(BenchmarkConfig{NumQueries: 5, Dims: 1, NewContract: c2}); err == nil {
		t.Error("d=1 accepted")
	}
	if _, err := Benchmark(BenchmarkConfig{NumQueries: 12, Dims: 4, NewContract: c2}); err == nil {
		t.Error("12 queries on d=4 accepted")
	}
	if _, err := Benchmark(BenchmarkConfig{NumQueries: 5, Dims: 4}); err == nil {
		t.Error("missing contract factory accepted")
	}
	if _, err := Benchmark(BenchmarkConfig{NumQueries: 0, Dims: 4, NewContract: c2}); err == nil {
		t.Error("zero queries accepted")
	}
}

func TestPriorityModes(t *testing.T) {
	highDims, err := Benchmark(BenchmarkConfig{NumQueries: 11, Dims: 4, Priority: HighDimsHigh, NewContract: c2})
	if err != nil {
		t.Fatal(err)
	}
	// Under HighDimsHigh the 4-d query must out-rank every 2-d query.
	var quad, pair float64
	for _, q := range highDims.Queries {
		switch len(q.Pref) {
		case 4:
			quad = q.Priority
		case 2:
			if q.Priority > pair {
				pair = q.Priority
			}
		}
	}
	if quad <= pair {
		t.Errorf("HighDimsHigh: 4-d priority %g not above best 2-d %g", quad, pair)
	}

	lowDims, _ := Benchmark(BenchmarkConfig{NumQueries: 11, Dims: 4, Priority: LowDimsHigh, NewContract: c2})
	quad, pair = 0, 1
	for _, q := range lowDims.Queries {
		switch len(q.Pref) {
		case 4:
			quad = q.Priority
		case 2:
			if q.Priority < pair {
				pair = q.Priority
			}
		}
	}
	if quad >= pair {
		t.Errorf("LowDimsHigh: 4-d priority %g not below worst 2-d %g", quad, pair)
	}
}

func TestPrioritiesSpanBands(t *testing.T) {
	for _, mode := range []PriorityMode{HighDimsHigh, LowDimsHigh, UniformPriority} {
		w, err := Benchmark(BenchmarkConfig{NumQueries: 11, Dims: 4, Priority: mode, NewContract: c2})
		if err != nil {
			t.Fatal(err)
		}
		bands := map[string]int{}
		for _, q := range w.Queries {
			if q.Priority < 0 || q.Priority > 1 {
				t.Fatalf("priority %g outside [0,1]", q.Priority)
			}
			bands[PriorityBand(q.Priority)]++
		}
		for _, b := range []string{"HIGH", "MEDIUM", "LOW"} {
			if bands[b] == 0 {
				t.Errorf("mode %d: no %s-priority queries", mode, b)
			}
		}
	}
}

func TestPriorityModeFor(t *testing.T) {
	if PriorityModeFor("C1") != HighDimsHigh || PriorityModeFor("C2") != HighDimsHigh {
		t.Error("C1/C2 should use HighDimsHigh")
	}
	if PriorityModeFor("C3") != LowDimsHigh || PriorityModeFor("C4") != LowDimsHigh {
		t.Error("C3/C4 should use LowDimsHigh")
	}
	if PriorityModeFor("C5") != UniformPriority {
		t.Error("C5 should use UniformPriority")
	}
}

func TestSingleQueryPriority(t *testing.T) {
	w, err := Benchmark(BenchmarkConfig{NumQueries: 1, Dims: 4, Priority: HighDimsHigh, NewContract: c2})
	if err != nil {
		t.Fatal(err)
	}
	if b := PriorityBand(w.Queries[0].Priority); b != "HIGH" {
		t.Errorf("single query priority band = %s", b)
	}
}
