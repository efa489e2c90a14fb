package core

import (
	"sync/atomic"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/datagen"
	"caqe/internal/run"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// fakeNS returns a deterministic monotonic nanosecond source: each reading
// advances time by step nanoseconds, so wall-clock scheduling decisions
// become reproducible in tests.
func fakeNS(step int64) func() int64 {
	var ns atomic.Int64
	return func() int64 { return ns.Add(step) }
}

// wallWorkload uses generous soft deadlines so that, in either clock mode,
// every result lands comfortably before its deadline — any satisfaction
// below 1 is a deadline regression.
func wallWorkload(nq, dims int) *workload.Workload {
	return testWorkload(nq, dims, workload.HighDimsHigh,
		func(int) contract.Contract { return contract.C3(1e6) })
}

// TestWallClockMatchesVirtualResults: the wall clock changes scheduling
// order, not answers. A complete run must deliver exactly the same final
// result set per query as the virtual-clock run, with monotone emission
// timestamps.
func TestWallClockMatchesVirtualResults(t *testing.T) {
	w := wallWorkload(4, 3)
	r, tt := testPair(t, 250, 3, datagen.Independent, 0.03, 5)

	virt, err := mustEngine(t, w, r, tt, Options{TargetCells: 8}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	wall, err := mustEngine(t, w, r, tt, Options{
		TargetCells: 8, WallClock: true, WallNowNS: fakeNS(2000),
	}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}

	if ok, diff := run.SameResults(virt, wall); !ok {
		t.Fatalf("wall-clock run diverged from virtual: %s", diff)
	}
	if wall.EndTime <= 0 {
		t.Fatalf("wall run end time %g", wall.EndTime)
	}
	assertMonotoneEmissions(t, wall)
}

// TestWallClockNoDeadlineRegressions: with deadlines far beyond the run
// length, wall mode must satisfy every contract fully — a tuple counted
// late would mean the wall tracker regressed a deadline it clearly met.
func TestWallClockNoDeadlineRegressions(t *testing.T) {
	w := wallWorkload(4, 3)
	r, tt := testPair(t, 250, 3, datagen.Independent, 0.03, 5)
	rep, err := mustEngine(t, w, r, tt, Options{
		TargetCells: 8, WallClock: true, WallNowNS: fakeNS(2000),
	}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	for qi, s := range rep.Satisfaction() {
		if len(rep.PerQuery[qi]) == 0 {
			continue
		}
		if s != 1 {
			t.Errorf("query %d satisfaction %g under a generous wall deadline, want 1", qi, s)
		}
	}
}

// TestWallClockRealTimeSmoke runs the engine on the real monotonic clock:
// answers still match the virtual run, emission times never go backwards,
// and satisfaction stays in range. This is the nondeterministic smoke
// counterpart of the fake-source tests (run under -race in CI).
func TestWallClockRealTimeSmoke(t *testing.T) {
	w := wallWorkload(6, 4)
	r, tt := testPair(t, 300, 4, datagen.AntiCorrelated, 0.04, 7)

	virt, err := mustEngine(t, w, r, tt, Options{TargetCells: 8}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	wall, err := mustEngine(t, w, r, tt, Options{TargetCells: 8, WallClock: true}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := run.SameResults(virt, wall); !ok {
		t.Fatalf("real wall-clock run diverged from virtual: %s", diff)
	}
	assertMonotoneEmissions(t, wall)
	for qi, s := range wall.Satisfaction() {
		if s < 0 || s > 1 {
			t.Errorf("query %d satisfaction %g out of range", qi, s)
		}
	}
}

// TestWallClockFeedbackStillRuns: Eq. 11 feedback must remain active in
// wall mode (driven by measured rates rather than counted work). An easy
// observable: a wall run with feedback disabled and one with it enabled
// both complete with identical final results.
func TestWallClockFeedbackStillRuns(t *testing.T) {
	w := wallWorkload(4, 3)
	r, tt := testPair(t, 200, 3, datagen.Correlated, 0.05, 11)
	a, err := mustEngine(t, w, r, tt, Options{
		TargetCells: 8, WallClock: true, WallNowNS: fakeNS(1500),
	}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mustEngine(t, w, r, tt, Options{
		TargetCells: 8, WallClock: true, WallNowNS: fakeNS(1500), DisableFeedback: true,
	}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := run.SameResults(a, b); !ok {
		t.Fatalf("feedback changed final answers: %s", diff)
	}
}

func mustEngine(t *testing.T, w *workload.Workload, r, tt *tuple.Relation, opt Options) *Engine {
	t.Helper()
	eng, err := New(w, r, tt, opt)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func assertMonotoneEmissions(t *testing.T, rep *run.Report) {
	t.Helper()
	for qi := range rep.PerQuery {
		last := -1.0
		for k, e := range rep.PerQuery[qi] {
			if e.Time < last {
				t.Fatalf("query %d emission %d time %g precedes %g", qi, k, e.Time, last)
			}
			last = e.Time
		}
	}
}
