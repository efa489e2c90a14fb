package run

import (
	"math"
	"sort"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/workload"
)

func testWorkload() *workload.Workload {
	return &workload.Workload{
		JoinConds: []join.EquiJoin{{Name: "JC1", LeftKey: 0, RightKey: 0}},
		OutDims:   []join.MapFunc{join.Sum("x0", 0), join.Sum("x1", 1)},
		Queries: []workload.Query{
			{Name: "Q1", JC: 0, Pref: preference.NewSubspace(0, 1), Priority: 0.9, Contract: contract.C1(10)},
			{Name: "Q2", JC: 0, Pref: preference.NewSubspace(0), Priority: 0.5, Contract: contract.C2()},
		},
	}
}

func TestEmitFeedsTrackers(t *testing.T) {
	rep := NewReport("X", testWorkload(), nil)
	rep.Emit(Emission{Query: 0, RID: 1, TID: 2, Time: 5})
	rep.Emit(Emission{Query: 0, RID: 3, TID: 4, Time: 50}) // past C1 deadline
	rep.Emit(Emission{Query: 1, RID: 1, TID: 2, Time: 5})
	rep.Finish(60, metrics.Counters{JoinResults: 7})

	if len(rep.PerQuery[0]) != 2 || len(rep.PerQuery[1]) != 1 {
		t.Fatalf("emission counts: %d, %d", len(rep.PerQuery[0]), len(rep.PerQuery[1]))
	}
	if rep.Counters.JoinResults != 7 || rep.EndTime != 60 {
		t.Fatal("Finish did not record counters/end time")
	}
	s := rep.Satisfaction()
	if s[0] != 0.5 {
		t.Fatalf("query 0 satisfaction = %g, want 0.5", s[0])
	}
	if s[1] != 1 {
		t.Fatalf("query 1 satisfaction = %g, want 1", s[1])
	}
	if got := rep.AvgSatisfaction(); got != 0.75 {
		t.Fatalf("avg = %g", got)
	}
}

func TestOnEmitHook(t *testing.T) {
	rep := NewReport("X", testWorkload(), nil)
	var seen []Emission
	rep.OnEmit = func(e Emission) { seen = append(seen, e) }
	rep.Emit(Emission{Query: 1, RID: 9, TID: 8, Time: 1})
	if len(seen) != 1 || seen[0].RID != 9 {
		t.Fatalf("hook saw %v", seen)
	}
}

func TestResultSetSorted(t *testing.T) {
	rep := NewReport("X", testWorkload(), nil)
	rep.Emit(Emission{Query: 0, RID: 5, TID: 1})
	rep.Emit(Emission{Query: 0, RID: 1, TID: 9})
	rep.Emit(Emission{Query: 0, RID: 1, TID: 2})
	keys := rep.ResultSet(0)
	want := []ResultKey{{1, 2}, {1, 9}, {5, 1}}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("ResultSet = %v", keys)
		}
	}
}

func TestSameResults(t *testing.T) {
	a := NewReport("A", testWorkload(), nil)
	b := NewReport("B", testWorkload(), nil)
	a.Emit(Emission{Query: 0, RID: 1, TID: 2, Time: 1})
	b.Emit(Emission{Query: 0, RID: 1, TID: 2, Time: 99}) // time may differ
	if ok, diff := SameResults(a, b); !ok {
		t.Fatalf("equal sets reported different: %s", diff)
	}
	b.Emit(Emission{Query: 1, RID: 3, TID: 4})
	if ok, _ := SameResults(a, b); ok {
		t.Fatal("different counts reported equal")
	}
	c := NewReport("C", testWorkload(), nil)
	c.Emit(Emission{Query: 0, RID: 1, TID: 3, Time: 1})
	if ok, _ := SameResults(a, c); ok {
		t.Fatal("different keys reported equal")
	}
}

func TestEstTotalsWiring(t *testing.T) {
	w := &workload.Workload{
		JoinConds: []join.EquiJoin{{Name: "JC1"}},
		OutDims:   []join.MapFunc{join.Sum("x0", 0)},
		Queries: []workload.Query{
			{Name: "Q1", Pref: preference.NewSubspace(0), Priority: 0.5, Contract: contract.C4(0.5, 10)},
		},
	}
	rep := NewReport("X", w, []int{2}) // quota: 1 per interval
	rep.Emit(Emission{Query: 0, Time: 1})
	rep.Emit(Emission{Query: 0, Time: 15})
	rep.Finish(20, metrics.Counters{})
	if got := rep.Satisfaction()[0]; got != 1 {
		t.Fatalf("satisfaction with wired totals = %g", got)
	}
}

func TestAvgSatisfactionEmpty(t *testing.T) {
	rep := &Report{}
	if rep.AvgSatisfaction() != 0 {
		t.Fatal("empty report should average 0")
	}
}

func TestSatisfactionTimeline(t *testing.T) {
	w := testWorkload()
	rep := NewReport("X", w, nil)
	rep.Emit(Emission{Query: 0, Time: 2})
	rep.Emit(Emission{Query: 1, Time: 4})
	rep.Emit(Emission{Query: 0, Time: 8})
	rep.Finish(10, metrics.Counters{})
	tl := rep.SatisfactionTimeline(w, nil, 5)
	if len(tl) != 5 {
		t.Fatalf("%d samples", len(tl))
	}
	// Delivered counts are non-decreasing and end at the total.
	last := 0
	for _, p := range tl {
		if p.Delivered < last {
			t.Fatalf("delivered count decreased: %v", tl)
		}
		last = p.Delivered
		if p.Satisfaction < 0 || p.Satisfaction > 1 {
			t.Fatalf("satisfaction %g outside [0,1]", p.Satisfaction)
		}
	}
	if last != 3 {
		t.Fatalf("final delivered = %d, want 3", last)
	}
	if tl[4].Time != 10 {
		t.Fatalf("final sample at %g, want 10", tl[4].Time)
	}
}

func TestSatisfactionTimelineSingleSample(t *testing.T) {
	w := testWorkload()
	rep := NewReport("X", w, nil)
	rep.Emit(Emission{Query: 0, Time: 1})
	rep.Finish(2, metrics.Counters{})
	tl := rep.SatisfactionTimeline(w, nil, 0) // clamped to 1
	if len(tl) != 1 || tl[0].Delivered != 1 {
		t.Fatalf("timeline = %v", tl)
	}
}

// TestSatisfactionTimelineNoQueries guards the zero-query division: the
// timeline must report satisfaction 0, not NaN.
func TestSatisfactionTimelineNoQueries(t *testing.T) {
	w := &workload.Workload{
		JoinConds: []join.EquiJoin{{Name: "JC1"}},
		OutDims:   []join.MapFunc{join.Sum("x0", 0)},
	}
	rep := NewReport("X", w, nil)
	rep.Finish(10, metrics.Counters{})
	for _, p := range rep.SatisfactionTimeline(w, nil, 4) {
		if math.IsNaN(p.Satisfaction) || p.Satisfaction != 0 {
			t.Fatalf("sample at %g: satisfaction = %v, want 0", p.Time, p.Satisfaction)
		}
	}
}

// replayTimeline is the previous O(samples·emissions·queries)
// implementation of SatisfactionTimeline — fresh trackers replayed from
// scratch and finalized per sample cut. The incremental single-pass version
// must match it exactly.
func replayTimeline(r *Report, w *workload.Workload, estTotals []int, samples int) []TimelinePoint {
	var all []Emission
	for _, ems := range r.PerQuery {
		all = append(all, ems...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	out := make([]TimelinePoint, 0, samples)
	for s := 1; s <= samples; s++ {
		cut := r.EndTime * float64(s) / float64(samples)
		trackers := make([]contract.Tracker, len(w.Queries))
		for qi, q := range w.Queries {
			est := 0
			if estTotals != nil {
				est = estTotals[qi]
			}
			trackers[qi] = q.Contract.NewTracker(est)
		}
		delivered := 0
		for _, e := range all {
			if e.Time > cut {
				break
			}
			trackers[e.Query].Observe(e.Time)
			delivered++
		}
		sum := 0.0
		for _, tr := range trackers {
			tr.Finalize(cut)
			sum += contract.AvgSatisfaction(tr)
		}
		out = append(out, TimelinePoint{Time: cut, Delivered: delivered, Satisfaction: sum / float64(len(trackers))})
	}
	return out
}

// TestSatisfactionTimelineMatchesReplay checks the incremental pass against
// the brute-force per-sample replay across every built-in contract class,
// including the cardinality ones whose trackers carry open-interval state.
func TestSatisfactionTimelineMatchesReplay(t *testing.T) {
	w := &workload.Workload{
		JoinConds: []join.EquiJoin{{Name: "JC1", LeftKey: 0, RightKey: 0}},
		OutDims:   []join.MapFunc{join.Sum("x0", 0), join.Sum("x1", 1)},
		Queries: []workload.Query{
			{Name: "Q1", Pref: preference.NewSubspace(0), Priority: 1, Contract: contract.C1(12)},
			{Name: "Q2", Pref: preference.NewSubspace(0), Priority: 1, Contract: contract.C2()},
			{Name: "Q3", Pref: preference.NewSubspace(1), Priority: 1, Contract: contract.C3(8)},
			{Name: "Q4", Pref: preference.NewSubspace(0, 1), Priority: 1, Contract: contract.C4(0.3, 5)},
			{Name: "Q5", Pref: preference.NewSubspace(0, 1), Priority: 1, Contract: contract.C5(0.3, 5)},
		},
	}
	totals := []int{6, 6, 6, 6, 6}
	rep := NewReport("X", w, totals)
	// Uneven emission pattern: bursts, gaps, quota misses, ties on sample
	// cuts.
	times := []float64{0.5, 1, 2, 2, 3.75, 4, 6, 7.5, 11, 14, 14, 19}
	for i, ts := range times {
		rep.Emit(Emission{Query: i % len(w.Queries), RID: i, TID: i, Time: ts})
	}
	rep.Finish(20, metrics.Counters{})

	for _, samples := range []int{1, 3, 8, 40} {
		got := rep.SatisfactionTimeline(w, totals, samples)
		want := replayTimeline(rep, w, totals, samples)
		if len(got) != len(want) {
			t.Fatalf("samples=%d: %d points, want %d", samples, len(got), len(want))
		}
		for i := range got {
			if got[i].Time != want[i].Time || got[i].Delivered != want[i].Delivered {
				t.Fatalf("samples=%d point %d: got %+v, want %+v", samples, i, got[i], want[i])
			}
			if math.Abs(got[i].Satisfaction-want[i].Satisfaction) > 1e-12 {
				t.Fatalf("samples=%d point %d: satisfaction %g, want %g",
					samples, i, got[i].Satisfaction, want[i].Satisfaction)
			}
		}
	}
}
