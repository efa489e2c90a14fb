package session

import (
	"errors"
	"reflect"
	"testing"

	"caqe/internal/core"
	"caqe/internal/run"
)

func emission(i int) run.Emission {
	return run.Emission{Query: 0, RID: i, TID: i * 10, Out: []float64{float64(i), float64(-i)}, Time: float64(i) / 10}
}

// TestEmitRingUnbounded exercises the growth path: with no limit the ring
// doubles as needed and drains every emission in push order.
func TestEmitRingUnbounded(t *testing.T) {
	r := emitRing{}
	for i := 0; i < 100; i++ {
		if r.push(emission(i)) {
			t.Fatalf("push %d coalesced in an unbounded ring", i)
		}
	}
	got, lag := r.drain(nil)
	if lag != 0 {
		t.Fatalf("lag %d in an unbounded ring", lag)
	}
	if len(got) != 100 {
		t.Fatalf("drained %d of 100", len(got))
	}
	for i, e := range got {
		if !reflect.DeepEqual(e, emission(i)) {
			t.Fatalf("entry %d: %+v", i, e)
		}
	}
}

// TestEmitRingOverwrite pins the bounded semantics: a full ring overwrites
// its oldest entry, counts it as lag, and drains exactly the newest limit
// emissions in order — including across interleaved partial drains.
func TestEmitRingOverwrite(t *testing.T) {
	r := emitRing{limit: 4}
	for i := 0; i < 10; i++ {
		coalesced := r.push(emission(i))
		if want := i >= 4; coalesced != want {
			t.Fatalf("push %d: coalesced=%v, want %v", i, coalesced, want)
		}
	}
	got, lag := r.drain(nil)
	if lag != 6 {
		t.Fatalf("lag %d, want 6", lag)
	}
	if len(got) != 4 {
		t.Fatalf("drained %d, want 4", len(got))
	}
	for i, e := range got {
		if !reflect.DeepEqual(e, emission(6+i)) {
			t.Fatalf("entry %d: got RID %d, want %d", i, e.RID, 6+i)
		}
	}

	// After a drain the ring starts fresh: no residual lag, wrap works.
	for i := 10; i < 13; i++ {
		r.push(emission(i))
	}
	got, lag = r.drain(nil)
	if lag != 0 || len(got) != 3 || got[0].RID != 10 {
		t.Fatalf("second drain: lag=%d n=%d first=%+v", lag, len(got), got[0])
	}
}

// TestHandleLagAccounting drives a handle past its high-water mark with no
// consumer: the stream must deliver one lag notice carrying the coalesced
// count followed by exactly the newest HighWater emissions, and the stats
// must account for every pushed emission.
func TestHandleLagAccounting(t *testing.T) {
	h := newHandle(0, "q", Backpressure{HighWater: 8})
	h.setState(StateRunning)
	for i := 0; i < 20; i++ {
		h.push(emission(i))
	}
	if st := h.State(); st != string(StateLagging) {
		t.Errorf("state %q while over the mark, want lagging", st)
	}
	ss := h.StreamStats()
	if ss.Buffered != 8 || ss.Coalesced != 12 || ss.LagEvents != 1 || ss.HighWater != 8 {
		t.Fatalf("stats %+v, want buffered=8 coalesced=12 lagEvents=1 highWater=8", ss)
	}

	h.finish(StateDone)
	var lags []int64
	var got []run.Emission
	for ev := range h.Events() {
		if ev.Lag > 0 {
			if len(got) > 0 {
				t.Fatal("lag notice after the emissions it predates")
			}
			lags = append(lags, ev.Lag)
			continue
		}
		got = append(got, ev.Emission)
	}
	if len(lags) != 1 || lags[0] != 12 {
		t.Fatalf("lag notices %v, want [12]", lags)
	}
	if len(got) != 8 {
		t.Fatalf("delivered %d, want 8", len(got))
	}
	for i, e := range got {
		if !reflect.DeepEqual(e, emission(12+i)) {
			t.Fatalf("entry %d: RID %d, want %d", i, e.RID, 12+i)
		}
	}
	if ss := h.StreamStats(); ss.Lagging {
		t.Error("still lagging after full drain")
	}
}

// TestHandleDisconnectSlow pins the severing policy: the push that finds
// the buffer at its mark releases it, closes the stream, and later pushes
// are discarded while the query (conceptually) keeps running.
func TestHandleDisconnectSlow(t *testing.T) {
	h := newHandle(0, "q", Backpressure{HighWater: 2, Policy: PolicyDisconnectSlow})
	h.setState(StateRunning)
	for i := 0; i < 5; i++ {
		h.push(emission(i))
	}
	ss := h.StreamStats()
	if !ss.Disconnected {
		t.Fatal("not disconnected past the mark")
	}
	if ss.Buffered != 0 {
		t.Fatalf("buffer holds %d after disconnect, want released", ss.Buffered)
	}
	n := 0
	for range h.Events() {
		n++
	}
	if n != 0 {
		t.Fatalf("severed stream delivered %d events", n)
	}
}

func openBP(t *testing.T, nq int, bp Backpressure, global int) (*Session, *run.Report, []*Handle) {
	t.Helper()
	const dims = 4
	w := testWorkload(t, nq, dims)
	r, tt := testData(t, 80, dims, 7)
	ref := batchReference(t, w, r, tt)
	w2 := testWorkload(t, nq, dims)
	s, err := Open(Config{
		R: r, T: tt,
		JoinConds:       w2.JoinConds,
		OutDims:         w2.OutDims,
		Engine:          core.Options{Workers: 1},
		Backpressure:    bp,
		GlobalHighWater: global,
	})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle, 0, nq)
	for _, q := range w2.Queries {
		h, err := s.Submit(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	return s, ref, handles
}

// TestSessionBackpressureBatchIdentical is the issue's acceptance bar:
// backpressure acts strictly on the delivery side, so a pre-submitted
// session run with the tightest possible high-water mark (1) and no
// consumer at all still produces a report byte-identical to a batch run.
func TestSessionBackpressureBatchIdentical(t *testing.T) {
	for _, hw := range []int{1, 3} {
		s, ref, _ := openBP(t, 6, Backpressure{HighWater: hw}, 0)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		rep := s.Report()
		if !reflect.DeepEqual(ref.PerQuery, rep.PerQuery) {
			t.Errorf("hw=%d: session emissions differ from batch", hw)
		}
		if ref.EndTime != rep.EndTime {
			t.Errorf("hw=%d: end time %v vs %v", hw, ref.EndTime, rep.EndTime)
		}
		if !reflect.DeepEqual(ref.Counters, rep.Counters) {
			t.Errorf("hw=%d: counters differ", hw)
		}
		if !reflect.DeepEqual(ref.Satisfaction(), rep.Satisfaction()) {
			t.Errorf("hw=%d: satisfaction differs", hw)
		}
	}
}

// TestSessionStalledConsumerBounded runs a session whose streams are never
// read during execution: every handle's buffer occupancy must stay at or
// below the high-water mark, and afterwards each stream must deliver its
// lag notice plus exactly the newest HighWater-bounded suffix of the
// query's report emissions — so delivered + coalesced accounts for every
// emission the report recorded.
func TestSessionStalledConsumerBounded(t *testing.T) {
	const limit = 4
	s, _, handles := openBP(t, 4, Backpressure{HighWater: limit}, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()

	st := s.stats() // executor exited; stats() is safe to call directly
	if st.Delivery.HighWater > limit {
		t.Fatalf("observed high water %d past the limit %d", st.Delivery.HighWater, limit)
	}

	for qi, h := range handles {
		total := len(rep.PerQuery[qi])
		var lag int64
		var got []run.Emission
		for ev := range h.Events() {
			if ev.Lag > 0 {
				lag += ev.Lag
				continue
			}
			got = append(got, ev.Emission)
		}
		if len(got)+int(lag) != total {
			t.Errorf("query %d: delivered %d + lag %d != report total %d", qi, len(got), lag, total)
		}
		if len(got) > limit {
			t.Errorf("query %d: delivered %d from a buffer limited to %d", qi, len(got), limit)
		}
		if want := rep.PerQuery[qi][total-len(got):]; !reflect.DeepEqual(got, want) {
			t.Errorf("query %d: delivered tail differs from the report's newest %d emissions", qi, len(got))
		}
		if ss := h.StreamStats(); ss.Coalesced != lag {
			t.Errorf("query %d: stats report %d coalesced, stream carried %d", qi, ss.Coalesced, lag)
		}
	}
}

// TestSessionGlobalHighWater pins load shedding: while aggregate buffered
// emissions sit at or above Config.GlobalHighWater, submissions bounce
// with ErrOverloaded; draining a stream readmits.
func TestSessionGlobalHighWater(t *testing.T) {
	const dims = 4
	w := testWorkload(t, 2, dims)
	r, tt := testData(t, 80, dims, 7)
	s, err := Open(Config{
		R: r, T: tt,
		JoinConds:       w.JoinConds,
		OutDims:         w.OutDims,
		Engine:          core.Options{Workers: 1},
		GlobalHighWater: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	h, err := s.Submit(w.Queries[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if len(rep.PerQuery[0]) == 0 {
		t.Skip("workload produced no emissions; shedding cannot bind")
	}

	if _, err := s.Submit(w.Queries[1], 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit over the global mark: %v, want ErrOverloaded", err)
	}
	for range h.Results() {
	}
	if _, err := s.Submit(w.Queries[1], 0); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestSessionPolicyValidation rejects unknown delivery policies at Open.
func TestSessionPolicyValidation(t *testing.T) {
	const dims = 4
	w := testWorkload(t, 1, dims)
	r, tt := testData(t, 20, dims, 3)
	_, err := Open(Config{
		R: r, T: tt,
		JoinConds:    w.JoinConds,
		OutDims:      w.OutDims,
		Backpressure: Backpressure{Policy: "drop-everything"},
	})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestSessionDisconnectSlowKeepsRunning runs a session under the severing
// policy with stalled consumers: streams are cut, yet every query still
// runs to completion with its full report (the executor is never blocked
// or perturbed by delivery).
func TestSessionDisconnectSlowKeepsRunning(t *testing.T) {
	s, ref, handles := openBP(t, 4, Backpressure{HighWater: 2, Policy: PolicyDisconnectSlow}, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if !reflect.DeepEqual(ref.PerQuery, rep.PerQuery) {
		t.Error("disconnect-slow perturbed the report")
	}
	st := s.stats()
	for qi, qs := range st.Queries {
		if want := len(ref.PerQuery[qi]); qs.Delivered != want {
			t.Errorf("query %d delivered %d, want %d", qi, qs.Delivered, want)
		}
	}
	if ref.EndTime != rep.EndTime {
		t.Errorf("end time %v vs %v", ref.EndTime, rep.EndTime)
	}
	var severed int64
	for _, h := range handles {
		if h.StreamStats().Disconnected {
			severed++
		}
	}
	if severed != st.Delivery.Disconnects {
		t.Errorf("stats count %d disconnects, handles show %d", st.Delivery.Disconnects, severed)
	}
	if severed == 0 {
		t.Error("no stream was severed despite stalled consumers and a 2-emission mark")
	}
}
