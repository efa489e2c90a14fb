package baseline

import (
	"reflect"
	"testing"

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

func smallSetup(t *testing.T, nq, dims, n int, seed int64) (*workload.Workload, *tuple.Relation, *tuple.Relation, []int) {
	t.Helper()
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: nq, Dims: dims, Priority: workload.HighDimsHigh,
		NewContract: func(int) contract.Contract { return contract.C3(10) },
	})
	r, tt, err := datagen.Pair(n, dims, datagen.Independent, []float64{0.03}, seed)
	if err != nil {
		t.Fatal(err)
	}
	_, totals, err := GroundTruth(w, r, tt)
	if err != nil {
		t.Fatal(err)
	}
	return w, r, tt, totals
}

func TestStrategyListOrder(t *testing.T) {
	names := []string{}
	for _, s := range All(Options{}) {
		names = append(names, s.Name)
	}
	want := []string{"CAQE", "S-JFSL", "JFSL", "ProgXe+", "SSMJ"}
	if len(names) != len(want) {
		t.Fatalf("strategies = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("strategies = %v, want %v", names, want)
		}
	}
}

// TestEmptyRelationEveryStrategy runs every strategy against an empty T:
// no join result, so no emission and no error.
func TestEmptyRelationEveryStrategy(t *testing.T) {
	w, r, tt, totals := smallSetup(t, 4, 3, 50, 31)
	empty := tuple.NewRelation(tt.Schema)
	for _, name := range Names() {
		rep, err := find(t, name, Options{}).Run(w, r, empty, totals)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := rep.Counters.TuplesEmitted; n != 0 {
			t.Fatalf("%s emitted %d results from an empty join", name, n)
		}
	}
}

func TestJFSLAccounting(t *testing.T) {
	w, r, tt, totals := smallSetup(t, 4, 3, 150, 31)
	rep, err := find(t, "JFSL", Options{}).Run(w, r, tt, totals)
	if err != nil {
		t.Fatal(err)
	}
	// JFSL probes the cross product of the filter's survivors once per
	// query: no sharing.
	want := survivorPairs(w, r, tt)
	if rep.Counters.JoinProbes != want {
		t.Fatalf("JFSL probes = %d, want %d", rep.Counters.JoinProbes, want)
	}
}

func TestJFSLIsBlockingPerQuery(t *testing.T) {
	w, r, tt, totals := smallSetup(t, 4, 3, 150, 33)
	rep, err := find(t, "JFSL", Options{}).Run(w, r, tt, totals)
	if err != nil {
		t.Fatal(err)
	}
	for qi, ems := range rep.PerQuery {
		for _, e := range ems[1:] {
			if e.Time != ems[0].Time {
				t.Fatalf("query %d results not delivered atomically: %g vs %g", qi, e.Time, ems[0].Time)
			}
		}
	}
}

func TestSSMJIsBlockingPerQuery(t *testing.T) {
	w, r, tt, totals := smallSetup(t, 4, 3, 150, 35)
	rep, err := find(t, "SSMJ", Options{}).Run(w, r, tt, totals)
	if err != nil {
		t.Fatal(err)
	}
	for qi, ems := range rep.PerQuery {
		for _, e := range ems[1:] {
			if e.Time != ems[0].Time {
				t.Fatalf("query %d results not delivered atomically", qi)
			}
		}
	}
}

func TestPriorityOrderRespected(t *testing.T) {
	// Under JFSL/SSMJ the highest-priority query's results must arrive
	// first (they are processed sequentially by priority).
	w, r, tt, totals := smallSetup(t, 4, 3, 150, 37)
	order := w.ByPriority()
	for _, name := range []string{"JFSL", "SSMJ"} {
		rep, err := find(t, name, Options{}).Run(w, r, tt, totals)
		if err != nil {
			t.Fatal(err)
		}
		last := -1.0
		for _, qi := range order {
			if len(rep.PerQuery[qi]) == 0 {
				continue
			}
			first := rep.PerQuery[qi][0].Time
			if first < last {
				t.Fatalf("%s: priority order violated (%g after %g)", name, first, last)
			}
			last = first
		}
	}
}

func TestProgXeIsProgressiveWithinQuery(t *testing.T) {
	w, r, tt, totals := smallSetup(t, 4, 3, 300, 39)
	rep, err := find(t, "ProgXe+", Options{TargetCells: 8}).Run(w, r, tt, totals)
	if err != nil {
		t.Fatal(err)
	}
	// At least one query should spread its emissions over time rather
	// than delivering everything at one instant.
	spread := false
	for _, ems := range rep.PerQuery {
		if len(ems) >= 2 && ems[len(ems)-1].Time > ems[0].Time {
			spread = true
		}
	}
	if !spread {
		t.Fatal("ProgXe+ delivered every query atomically; expected progressive output")
	}
}

func TestSharingReducesWork(t *testing.T) {
	w, r, tt, totals := smallSetup(t, 6, 4, 300, 41)
	jfsl, err := find(t, "JFSL", Options{}).Run(w, r, tt, totals)
	if err != nil {
		t.Fatal(err)
	}
	caqe := All(Options{TargetCells: 8})[0]
	rep, err := caqe.Run(w, r, tt, totals)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.JoinResults >= jfsl.Counters.JoinResults {
		t.Errorf("CAQE produced %d join results, JFSL %d — no sharing benefit",
			rep.Counters.JoinResults, jfsl.Counters.JoinResults)
	}
	if rep.Counters.SkylineCmps >= jfsl.Counters.SkylineCmps {
		t.Errorf("CAQE performed %d comparisons, JFSL %d — no sharing benefit",
			rep.Counters.SkylineCmps, jfsl.Counters.SkylineCmps)
	}
}

func TestStrategiesDeterministic(t *testing.T) {
	w, r, tt, totals := smallSetup(t, 4, 3, 200, 43)
	for _, s := range All(Options{TargetCells: 6}) {
		a, err := s.Run(w, r, tt, totals)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Run(w, r, tt, totals)
		if err != nil {
			t.Fatal(err)
		}
		if a.EndTime != b.EndTime {
			t.Errorf("%s: end times differ across runs: %g vs %g", s.Name, a.EndTime, b.EndTime)
		}
		if ok, diff := run.SameResults(a, b); !ok {
			t.Errorf("%s: results differ across runs: %s", s.Name, diff)
		}
	}
}

func TestGroundTruthSharesJoins(t *testing.T) {
	w, r, tt, _ := smallSetup(t, 4, 3, 100, 45)
	results, totals, err := GroundTruth(w, r, tt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(w.Queries) || len(totals) != len(w.Queries) {
		t.Fatalf("shape: %d results, %d totals", len(results), len(totals))
	}
	for qi := range results {
		if totals[qi] != len(results[qi]) {
			t.Fatalf("query %d: total %d != %d results", qi, totals[qi], len(results[qi]))
		}
	}
}

// TestMultiJoinConditionOracle: two queries with *different* join
// conditions (the supply-chain shape of Examples 14-15) must still agree
// with the oracle under every strategy.
func TestMultiJoinConditionOracle(t *testing.T) {
	w := &workload.Workload{
		JoinConds: []join.EquiJoin{
			{Name: "by-country", LeftKey: 0, RightKey: 0},
			{Name: "by-part", LeftKey: 1, RightKey: 1},
		},
		OutDims: []join.MapFunc{join.Sum("x0", 0), join.Sum("x1", 1), join.Sum("x2", 2)},
		Queries: []workload.Query{
			{Name: "Q1", JC: 0, Pref: preference.NewSubspace(0, 2), Priority: 0.8, Contract: contract.C3(10)},
			{Name: "Q2", JC: 1, Pref: preference.NewSubspace(0, 1), Priority: 0.4, Contract: contract.C2()},
		},
	}
	gen := func(name string, seed int64) *tuple.Relation {
		rel, err := datagen.Generate(datagen.Config{
			Name: name, N: 200, Dims: 3, Distribution: datagen.Independent,
			NumKeys: 2, KeyDomain: []int64{15, 25}, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	r, tt := gen("R", 51), gen("T", 52)
	oracle, totals, err := GroundTruthReport(w, r, tt)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All(Options{TargetCells: 6, GridResolution: 16}) {
		rep, err := s.Run(w, r, tt, totals)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if ok, diff := run.SameResults(oracle, rep); !ok {
			t.Errorf("%s: %s", s.Name, diff)
		}
	}
}

func TestTimeSharedAgreesWithOracle(t *testing.T) {
	w, r, tt, totals := smallSetup(t, 4, 3, 150, 47)
	oracle, _, err := GroundTruthReport(w, r, tt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := find(t, "TimeShared", Options{}).Run(w, r, tt, totals)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := run.SameResults(oracle, rep); !ok {
		t.Fatalf("TimeShared mismatch: %s", diff)
	}
}

func TestTimeSharedInterleavesCompletions(t *testing.T) {
	// With round-robin slices, cheap queries complete before expensive
	// ones regardless of declaration order, and each query's results are
	// delivered atomically at its own completion time.
	w, r, tt, totals := smallSetup(t, 4, 3, 200, 49)
	rep, err := find(t, "TimeShared", Options{}).Run(w, r, tt, totals)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for qi, ems := range rep.PerQuery {
		if len(ems) == 0 {
			continue
		}
		for _, e := range ems[1:] {
			if e.Time != ems[0].Time {
				t.Fatalf("query %d results not atomic", qi)
			}
		}
		distinct[ems[0].Time] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all queries completed simultaneously: %v", distinct)
	}
}

func TestTimeSharedNoSharing(t *testing.T) {
	w, r, tt, totals := smallSetup(t, 4, 3, 150, 51)
	rep, err := find(t, "TimeShared", Options{}).Run(w, r, tt, totals)
	if err != nil {
		t.Fatal(err)
	}
	want := survivorPairs(w, r, tt)
	if rep.Counters.JoinProbes != want {
		t.Fatalf("time-shared probes = %d, want %d (full join per query)", rep.Counters.JoinProbes, want)
	}
}

// survivorPairs is the probe count of one full nested-loop join per query
// over the rows the join-group filter keeps for the query's condition.
func survivorPairs(w *workload.Workload, r, tt *tuple.Relation) int64 {
	rs, ts := core.Survivors(w, r, tt, nil)
	n := int64(0)
	for _, q := range w.Queries {
		jc := w.JoinConds[q.JC]
		n += int64(len(rs[jc.LeftKey]) * len(ts[jc.RightKey]))
	}
	return n
}

// find returns the named strategy or fails the test.
func find(t *testing.T, name string, opt Options) Strategy {
	t.Helper()
	s, err := Find(name, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNamesAndFind pins the strategy table: the paper's five in its order,
// then TimeShared, each found by name and reporting under its own name, and
// an unknown name rejected.
func TestNamesAndFind(t *testing.T) {
	want := []string{"CAQE", "S-JFSL", "JFSL", "ProgXe+", "SSMJ", "TimeShared"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	w, r, tt, totals := smallSetup(t, 3, 3, 100, 53)
	for _, name := range want {
		rep, err := find(t, name, Options{TargetCells: 6}).Run(w, r, tt, totals)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Strategy != name {
			t.Errorf("%s's report is named %q", name, rep.Strategy)
		}
	}
	if _, err := Find("bogus", Options{}); err == nil {
		t.Fatal("Find accepted an unknown strategy")
	}
}

// TestEngineConfigIsWhatRuns: a strategy's engine configuration is the one
// it runs. One engine with S-JFSL's configuration over the workload — and
// with ProgXe+'s over a one-query workload — reproduces the strategy's
// report: emissions, counters and end time. The configuration handed out is
// a copy; changing it changes nothing the strategy holds.
func TestEngineConfigIsWhatRuns(t *testing.T) {
	w, r, tt, totals := smallSetup(t, 4, 3, 200, 55)
	one := singleQuery(w, 0)
	for _, tc := range []struct {
		name   string
		w      *workload.Workload
		totals []int
	}{
		{"S-JFSL", w, totals},
		{"ProgXe+", one, totals[:1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := find(t, tc.name, Options{TargetCells: 6, GridResolution: 16})
			cfg, ok := s.Engine()
			if !ok {
				t.Fatalf("%s has no engine configuration", tc.name)
			}
			eng, err := core.New(tc.w, r, tt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			clock := metrics.NewClock()
			got := run.NewReport(tc.name, tc.w, tc.totals)
			if err := eng.ExecuteInto(clock, got, nil); err != nil {
				t.Fatal(err)
			}
			got.Finish(clock.Now()/metrics.VirtualSecond, clock.Counters())
			want, err := s.Run(tc.w, r, tt, tc.totals)
			if err != nil {
				t.Fatal(err)
			}
			if want.Counters.TuplesEmitted == 0 {
				t.Fatal("the strategy emitted nothing; the comparison would be vacuous")
			}
			assertIdenticalReports(t, want, got)

			cfg.DataOrderScheduling = !cfg.DataOrderScheduling
			if again, _ := s.Engine(); again.DataOrderScheduling == cfg.DataOrderScheduling {
				t.Error("changing the returned configuration changed the strategy's")
			}
		})
	}
	for _, name := range []string{"JFSL", "SSMJ", "TimeShared"} {
		if _, ok := find(t, name, Options{}).Engine(); ok {
			t.Errorf("%s reports an engine configuration", name)
		}
	}
}
