package core

import (
	"slices"
	"testing"

	"caqe/internal/datagen"
	"caqe/internal/run"
	"caqe/internal/trace"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// newPipelineTestState wires a real state (plan, space, shared skyline)
// without running it, so tests can drive processRegion one region at a
// time.
func newPipelineTestState(t *testing.T, opt Options) *state {
	t.Helper()
	w := testWorkload(4, 3, workload.UniformPriority, c3s)
	r, tt := testPair(t, 200, 3, datagen.Independent, 0.04, 31)
	return newTestState(t, w, r, tt, opt)
}

func newTestState(t *testing.T, w *workload.Workload, r, tt *tuple.Relation, opt Options) *state {
	t.Helper()
	eng := mustEngine(t, w, r, tt, opt)
	clock := eng.opt.NewClock()
	cuboid, space, filter, err := eng.plan(clock, false)
	if err != nil {
		t.Fatal(err)
	}
	rep := run.NewReport("CAQE", w, nil)
	rep.StartTrace(eng.opt.Tracer)
	return newState(eng, clock, space, eng.newShared(cuboid, space, clock), rep, filter)
}

// firstLiveRegion returns the first region still serving a query.
func firstLiveRegion(t *testing.T, st *state) int {
	t.Helper()
	for ri := range st.regions {
		if st.regions[ri].Alive != 0 {
			return ri
		}
	}
	t.Fatal("no live region in test space")
	return -1
}

// TestPipelineProcessRetiresRegion drives one region through processRegion
// and checks its effects: the region retires and the region-done work is
// charged, the join marks its conditions joined, and the results are
// materialized as payloads into the shared skyline.
func TestPipelineProcessRetiresRegion(t *testing.T) {
	st := newPipelineTestState(t, Options{TargetCells: 6})
	st.initQueue()
	ri := firstLiveRegion(t, st)
	before := st.clock.Counters()
	st.processRegion(ri)
	after := st.clock.Counters()
	if st.regions[ri].Alive != 0 {
		t.Error("region not retired")
	}
	if after.RegionsDone != before.RegionsDone+1 {
		t.Errorf("RegionsDone %d → %d, want +1", before.RegionsDone, after.RegionsDone)
	}
	joined := false
	for j := range st.w.JoinConds {
		joined = joined || st.joinComplete(st.regions[ri], j)
	}
	if !joined {
		t.Error("SignatureJoin did not record the joined conditions")
	}
	if after.JoinProbes == before.JoinProbes {
		t.Error("no join probes charged")
	}
	if len(st.payloads) == 0 {
		t.Error("DominanceFilter materialized no payloads")
	}
}

// TestSignatureJoinSkipsJoinedConditions pins the join-cursor reopening
// guard: a region whose conditions are all marked joined (the state a late
// admission revives) must go through processRegion without producing a
// single probe or payload.
func TestSignatureJoinSkipsJoinedConditions(t *testing.T) {
	st := newPipelineTestState(t, Options{TargetCells: 6})
	st.initQueue()
	ri := firstLiveRegion(t, st)
	for j := range st.w.JoinConds {
		left, right := st.joinRows(st.regions[ri], j)
		*st.cursor(ri, j) = joinCursor{len(left), len(right)}
	}
	before := st.clock.Counters()
	st.processRegion(ri)
	after := st.clock.Counters()
	if after.JoinProbes != before.JoinProbes {
		t.Errorf("probes charged on a fully-joined region: %d → %d", before.JoinProbes, after.JoinProbes)
	}
	if len(st.payloads) != 0 {
		t.Errorf("%d payloads materialized from a fully-joined region", len(st.payloads))
	}
	if st.regions[ri].Alive != 0 {
		t.Error("region must still retire")
	}
}

// recorder is a tracer that keeps every event.
type recorder struct{ evs []trace.Event }

func (r *recorder) Trace(ev trace.Event) { r.evs = append(r.evs, ev) }

// TestProcessRegionTraceOrder pins the event sequence of one scheduling
// step over a fresh region of a two-condition workload — what
// benchmark/stats.go turns into the scheduler/join/dominance wall split:
// the decision, PartitionScan once per condition in condition order (rows =
// |left|·|right|), SignatureJoin only after a condition that produced
// results (rows = results), discards, one DominanceFilter (rows = results
// created), then only emissions and the feedback update.
func TestProcessRegionTraceOrder(t *testing.T) {
	rec := &recorder{}
	r, tt, err := datagen.Pair(80, 3, datagen.Independent, []float64{0.05, 0.05}, 31)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestState(t, standingWorkload(1), r, tt, Options{TargetCells: 4, Tracer: rec})
	st.initQueue()
	rec.evs = nil
	if !st.step() {
		t.Fatal("no region scheduled")
	}
	st.rep.FlushTrace()
	evs := rec.evs
	if len(evs) == 0 || evs[0].Kind != trace.KindDecision {
		t.Fatalf("step opened with %+v, want a decision", evs)
	}
	ri := evs[0].Region
	rc := st.regions[ri]

	type opEv struct {
		op   string
		rows int
	}
	var want []opEv
	created := 0
	for j, jc := range st.w.JoinConds {
		left, right := st.joinRows(rc, j)
		want = append(want, opEv{opNamePartitionScan, len(left) * len(right)})
		results := 0
		for _, l := range left {
			for _, rt := range right {
				if jc.Matches(l, rt) {
					results++
				}
			}
		}
		if results > 0 {
			want = append(want, opEv{opNameSignatureJoin, results})
		}
		created += results
	}
	if created == 0 {
		t.Fatal("scheduled region joined to nothing; pick another seed")
	}
	want = append(want, opEv{opNameDominanceFilter, created})

	var got []opEv
	for _, ev := range evs[1:] {
		dominanceDone := len(got) > 0 && got[len(got)-1].op == opNameDominanceFilter
		switch ev.Kind {
		case trace.KindOpBatch:
			if ev.Region != ri {
				t.Errorf("op event for region %d during region %d", ev.Region, ri)
			}
			got = append(got, opEv{ev.Op, ev.Count})
		case trace.KindDiscard:
			if len(got) != len(want)-1 {
				t.Errorf("discard after %d op events, want it between the last join and DominanceFilter", len(got))
			}
		case trace.KindEmit, trace.KindFeedback:
			if !dominanceDone {
				t.Errorf("%s event before DominanceFilter", ev.Kind)
			}
		default:
			t.Errorf("unexpected %s event inside a scheduling step", ev.Kind)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("op events %v, want %v", got, want)
	}
}
