package session

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/core"
	"caqe/internal/datagen"
	"caqe/internal/run"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

func c3s(int) contract.Contract { return contract.C3(10) }

func testData(t *testing.T, n, dims int, seed int64) (*tuple.Relation, *tuple.Relation) {
	t.Helper()
	r, tt, err := datagen.Pair(n, dims, datagen.Independent, []float64{0.05, 0.05}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r, tt
}

func testWorkload(t *testing.T, nq, dims int) *workload.Workload {
	t.Helper()
	return workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: nq, Dims: dims, Priority: workload.UniformPriority, NewContract: c3s,
	})
}

func openFrom(t *testing.T, w *workload.Workload, r, tt *tuple.Relation, maxConc int) *Session {
	t.Helper()
	s, err := Open(Config{
		R: r, T: tt,
		JoinConds:     w.JoinConds,
		OutDims:       w.OutDims,
		Engine:        core.Options{Workers: 1},
		MaxConcurrent: maxConc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func batchReference(t *testing.T, w *workload.Workload, r, tt *tuple.Relation) *run.Report {
	t.Helper()
	e, err := core.New(w, r, tt, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func sameResultSets(t *testing.T, label string, a, b *run.Report, qi int) {
	t.Helper()
	sameResultSetsAt(t, label, a, qi, b, qi)
}

func sameResultSetsAt(t *testing.T, label string, a *run.Report, qa int, b *run.Report, qb int) {
	t.Helper()
	ka, kb := a.ResultSet(qa), b.ResultSet(qb)
	if !reflect.DeepEqual(ka, kb) {
		t.Errorf("%s: query %d/%d result set differs: %d vs %d results", label, qa, qb, len(ka), len(kb))
	}
}

// TestSessionBatchIdentical is the acceptance bar for pre-submitted
// sessions: submitting every query before execution and closing must yield
// a report byte-identical to a batch engine run — emissions, timestamps,
// counters and satisfaction.
func TestSessionBatchIdentical(t *testing.T) {
	const nq, dims = 6, 4
	w := testWorkload(t, nq, dims)
	r, tt := testData(t, 80, dims, 7)
	ref := batchReference(t, w, r, tt)

	w2 := testWorkload(t, nq, dims)
	s := openFrom(t, w2, r, tt, 0)
	for _, q := range w2.Queries {
		if _, err := s.Submit(q, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()

	if !reflect.DeepEqual(ref.PerQuery, rep.PerQuery) {
		t.Error("session emissions differ from batch")
	}
	if ref.EndTime != rep.EndTime {
		t.Errorf("end time %v vs %v", ref.EndTime, rep.EndTime)
	}
	if !reflect.DeepEqual(ref.Counters, rep.Counters) {
		t.Errorf("counters differ:\nbatch:   %+v\nsession: %+v", ref.Counters, rep.Counters)
	}
	if !reflect.DeepEqual(ref.Satisfaction(), rep.Satisfaction()) {
		t.Errorf("satisfaction differs: %v vs %v", ref.Satisfaction(), rep.Satisfaction())
	}
}

// TestSessionStreams checks the per-query delivery channels: every handle
// streams exactly its report emissions, in order, and closes.
func TestSessionStreams(t *testing.T) {
	const nq, dims = 4, 4
	w := testWorkload(t, nq, dims)
	r, tt := testData(t, 60, dims, 9)
	s := openFrom(t, w, r, tt, 0)

	handles := make([]*Handle, nq)
	for i, q := range w.Queries {
		h, err := s.Submit(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if h.ID() != i || h.State() != string(StateQueued) {
			t.Fatalf("handle %d: id=%d state=%s", i, h.ID(), h.State())
		}
		handles[i] = h
	}

	var wg sync.WaitGroup
	got := make([][]run.Emission, nq)
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *Handle) {
			defer wg.Done()
			for e := range h.Results() {
				got[i] = append(got[i], e)
			}
		}(i, h)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	rep := s.Report()
	for i := range handles {
		if len(got[i]) == 0 && len(rep.PerQuery[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got[i], rep.PerQuery[i]) {
			t.Errorf("query %d: streamed %d emissions, report has %d (or order differs)",
				i, len(got[i]), len(rep.PerQuery[i]))
		}
		if handles[i].State() != string(StateDone) {
			t.Errorf("query %d: state %s after close", i, handles[i].State())
		}
	}
}

// TestSessionMidRunSubmit starts a session over a prefix of the workload
// and submits the last query while execution is already under way. Every
// query — early or late — must end with the result set a from-the-start
// batch run of the full workload delivers (the core admission layer makes
// this offset-independent; here we check the session wiring preserves it).
func TestSessionMidRunSubmit(t *testing.T) {
	const nq, dims = 4, 4
	full := testWorkload(t, nq+1, dims)
	r, tt := testData(t, 70, dims, 11)
	ref := batchReference(t, full, r, tt)

	w2 := testWorkload(t, nq+1, dims)
	late := w2.Queries[nq]
	s := openFrom(t, w2, r, tt, 0)
	for _, q := range w2.Queries[:nq] {
		if _, err := s.Submit(q, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit(late, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Arrival() < 0 {
		t.Errorf("late arrival %v", h.Arrival())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	for q := 0; q <= nq; q++ {
		sameResultSets(t, "mid-run", ref, rep, q)
	}
	if h.State() != string(StateDone) {
		t.Errorf("late query state %s", h.State())
	}
}

// TestSessionCancel cancels one running query: its stream closes without
// retracting anything, and the survivors still deliver their batch result
// sets.
func TestSessionCancel(t *testing.T) {
	const nq, dims = 5, 4
	w := testWorkload(t, nq, dims)
	r, tt := testData(t, 70, dims, 13)
	ref := batchReference(t, w, r, tt)

	w2 := testWorkload(t, nq, dims)
	s := openFrom(t, w2, r, tt, 0)
	handles := make([]*Handle, nq)
	for i, q := range w2.Queries {
		h, err := s.Submit(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	// Deterministic pre-start cancellation: the victim never joins the
	// built workload and its stream closes empty.
	const queuedVictim = 0
	if err := s.Cancel(queuedVictim); err != nil {
		t.Fatal(err)
	}
	if handles[queuedVictim].State() != string(StateCancelled) {
		t.Errorf("queued victim state %s", handles[queuedVictim].State())
	}
	if _, open := <-handles[queuedVictim].Results(); open {
		t.Error("queued victim stream delivered a result")
	}

	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Mid-run cancellation races the free-running executor: the victim may
	// already have finished naturally, so either terminal state is legal,
	// but the call must succeed, be idempotent, and close the stream.
	const victim = 1
	if err := s.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(victim); err != nil {
		t.Errorf("second cancel errored: %v", err)
	}
	if err := s.Cancel(99); !errors.Is(err, ErrUnknownQuery) {
		t.Errorf("cancel of unknown query: %v", err)
	}
	// The victim's stream must close even though the session keeps running.
	for range handles[victim].Results() {
	}
	if st := handles[victim].State(); st != string(StateCancelled) && st != string(StateDone) {
		t.Errorf("victim state %s", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	for q := 0; q < nq; q++ {
		if q == queuedVictim || q == victim {
			continue
		}
		// Per-query result sets are schedule-independent, so the survivors
		// still match the full-workload batch reference even though two
		// co-queries disappeared (the report indexes by engine-local query,
		// which shifted past the pre-start cancellation).
		sameResultSetsAt(t, "cancel", ref, q, rep, handles[q].local)
	}
}

// TestSessionAdmissionCap exercises the bounded-admission contract: beyond
// MaxConcurrent open queries Submit fails with ErrAdmissionFull, and slots
// free up as queries finish.
func TestSessionAdmissionCap(t *testing.T) {
	const dims = 4
	w := testWorkload(t, 3, dims)
	r, tt := testData(t, 50, dims, 17)
	s := openFrom(t, w, r, tt, 2)

	for _, q := range w.Queries[:2] {
		if _, err := s.Submit(q, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(w.Queries[2], 0); !errors.Is(err, ErrAdmissionFull) {
		t.Fatalf("third submission: %v", err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	// Both initial queries finished; the cap has room again.
	h, err := s.Submit(w.Queries[2], 0)
	if err != nil {
		t.Fatalf("post-drain submission: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if h.State() != string(StateDone) {
		t.Errorf("post-drain query state %s", h.State())
	}
	if _, err := s.Submit(w.Queries[0], 0); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v", err)
	}
}

// TestSessionLifetimeCapLifted runs far more query lifecycles through one
// session than the 64-slot representation limit: retired slots must be
// reclaimed (no ErrSessionFull), and a query admitted after heavy slot
// turnover must still produce exactly the batch result set.
func TestSessionLifetimeCapLifted(t *testing.T) {
	const dims = 4
	w := testWorkload(t, 2, dims)
	r, tt := testData(t, 40, dims, 19)
	ref := batchReference(t, w, r, tt)
	s := openFrom(t, w, r, tt, 0)
	defer s.Close()

	// Start execution with one resident query so every later submission
	// exercises the engine's mid-run admission (and, past 64, slot reuse).
	if _, err := s.Submit(w.Queries[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}

	q := w.Queries[0]
	const lifecycles = workload.MaxQueries + 16
	for i := 1; i <= lifecycles; i++ {
		h, err := s.Submit(q, 0)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		// Cancel immediately so the concurrent cap never binds and the slot
		// retires for the next lifecycle.
		if err := s.Cancel(h.ID()); err != nil {
			t.Fatalf("cancel %d: %v", i, err)
		}
	}

	// Past the old lifetime cap: a fresh query on a recycled slot must run
	// to completion with the correct (batch-identical) result set.
	h, err := s.Submit(w.Queries[1], 0)
	if err != nil {
		t.Fatalf("submission past the old cap: %v", err)
	}
	got := 0
	for range h.Results() {
		got++
	}
	if h.State() != string(StateDone) {
		t.Errorf("post-cap query state %s", h.State())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if want := 1 + lifecycles + 1; len(rep.Trackers) != want {
		t.Errorf("report tracks %d queries, want %d", len(rep.Trackers), want)
	}
	sameResultSetsAt(t, "post-cap admission", rep, h.repIdx, ref, 1)
	if want := len(ref.ResultSet(1)); got != want {
		t.Errorf("streamed %d results, result set has %d", got, want)
	}
}

// TestSessionMaxConcurrentValidation: values outside the engine's
// representation limit are rejected at Open, not silently clamped.
func TestSessionMaxConcurrentValidation(t *testing.T) {
	const dims = 4
	w := testWorkload(t, 2, dims)
	r, tt := testData(t, 20, dims, 19)
	for _, bad := range []int{-1, workload.MaxQueries + 1, 1000} {
		if _, err := Open(Config{
			R: r, T: tt, JoinConds: w.JoinConds, OutDims: w.OutDims,
			Engine: core.Options{Workers: 1}, MaxConcurrent: bad,
		}); err == nil {
			t.Errorf("MaxConcurrent %d accepted", bad)
		}
	}
	s := openFrom(t, w, r, tt, workload.MaxQueries)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionStats sanity-checks the snapshot: query rows track states and
// delivered counts, and the virtual clock only moves forward.
func TestSessionStats(t *testing.T) {
	const nq, dims = 3, 4
	w := testWorkload(t, nq, dims)
	r, tt := testData(t, 50, dims, 23)
	s := openFrom(t, w, r, tt, 0)
	for _, q := range w.Queries {
		if _, err := s.Submit(q, 0); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != nq || st.Open != nq || st.Started {
		t.Errorf("pre-start stats: %+v", st)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	st, err = s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Started || st.Open != 0 || st.Now <= 0 {
		t.Errorf("post-drain stats: %+v", st)
	}
	total := 0
	for _, qs := range st.Queries {
		if qs.State != string(StateDone) {
			t.Errorf("query %d state %s", qs.ID, qs.State)
		}
		total += qs.Delivered
	}
	if total == 0 {
		t.Error("no deliveries reported")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionConcurrentOps hammers one session from many goroutines —
// submissions, cancellations, stats, stream consumption — and relies on
// the race detector to catch executor-synchronization bugs.
func TestSessionConcurrentOps(t *testing.T) {
	const dims = 4
	w := testWorkload(t, 4, dims)
	r, tt := testData(t, 50, dims, 29)
	s := openFrom(t, w, r, tt, 0)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				h, err := s.Submit(w.Queries[(g+i)%len(w.Queries)], 0)
				if err != nil {
					continue // cap or lifetime rejections are fine here
				}
				if g%2 == 0 {
					go func() {
						for range h.Results() {
						}
					}()
				}
				if i%2 == 1 {
					_ = s.Cancel(h.ID())
				}
				if _, err := s.Stats(); err != nil {
					t.Errorf("stats: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAnchoredContractSatisfaction checks that a mid-run admission measures
// its deadline from arrival: a C1 deadline shorter than the elapsed virtual
// time would score zero un-anchored, but anchored it scores like a fresh
// query.
func TestAnchoredContractSatisfaction(t *testing.T) {
	const nq, dims = 4, 4
	w := testWorkload(t, nq+1, dims)
	r, tt := testData(t, 70, dims, 31)
	late := w.Queries[nq]
	late.Contract = contract.C1(5) // 5 virtual seconds from arrival

	s := openFrom(t, w, r, tt, 0)
	for _, q := range w.Queries[:nq] {
		if _, err := s.Submit(q, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Now <= 5 {
		t.Skipf("workload drained in %v virtual seconds; deadline anchor not observable", st.Now)
	}
	h, err := s.Submit(late, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if len(rep.PerQuery[h.ID()]) == 0 {
		t.Skip("late query produced no results; satisfaction not observable")
	}
	sat := rep.Satisfaction()[h.ID()]
	if sat <= 0 {
		t.Errorf("anchored deadline satisfaction = %v; contract clock not anchored at arrival", sat)
	}
}

// TestExecutorPanicContained: a panic on the executor goroutine (here a
// faulty OnFirstResult, standing in for any invariant slip) must not kill
// the process. Every open stream ends, in state cancelled, keeping what it
// had delivered; the session closes and every later call says so.
func TestExecutorPanicContained(t *testing.T) {
	const nq, dims = 4, 4
	w := testWorkload(t, nq, dims)
	r, tt := testData(t, 80, dims, 7)
	s, err := Open(Config{
		R: r, T: tt, JoinConds: w.JoinConds, OutDims: w.OutDims,
		Engine:        core.Options{Workers: 1},
		OnFirstResult: func(int, float64) { panic("injected") },
	})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle, nq)
	for i, q := range w.Queries {
		if handles[i], err = s.Submit(q, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The panic fires inside the Start command or a later step; either way
	// Start's caller must get an answer instead of waiting forever.
	if err := s.Start(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("Start: %v", err)
	}
	for _, h := range handles {
		for range h.Events() { // must terminate: the stream was finished
		}
		if st := h.State(); st != string(StateCancelled) {
			t.Errorf("query %d state %s after executor panic, want cancelled", h.ID(), st)
		}
	}
	if _, err := s.Submit(w.Queries[0], 0); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after executor panic: %v, want ErrClosed", err)
	}
	if _, err := s.Stats(); !errors.Is(err, ErrClosed) {
		t.Errorf("Stats after executor panic: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close after executor panic: %v", err)
	}
}
