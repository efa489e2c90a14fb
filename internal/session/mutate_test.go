package session

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"caqe/internal/core"
	"caqe/internal/run"
	"caqe/internal/tuple"
)

// rowsFrom extracts rows [from, to) of a relation as append payloads.
func rowsFrom(src *tuple.Relation, from, to int) []core.TupleData {
	rows := make([]core.TupleData, 0, to-from)
	for i := from; i < to; i++ {
		tp := src.At(i)
		rows = append(rows, core.TupleData{
			Attrs: append([]float64(nil), tp.Attrs...),
			Keys:  append([]int64(nil), tp.Keys...),
		})
	}
	return rows
}

func cloneRel(src *tuple.Relation, n int) *tuple.Relation {
	out := tuple.NewRelation(src.Schema)
	for i := 0; i < n; i++ {
		tp := src.At(i)
		out.MustAppend(append([]float64(nil), tp.Attrs...), append([]int64(nil), tp.Keys...))
	}
	return out
}

// collectAll reads a handle's stream to its close, returning the keys seen.
func collectAll(t *testing.T, h *Handle, timeout time.Duration) []run.ResultKey {
	t.Helper()
	var got []run.ResultKey
	deadline := time.After(timeout)
	for {
		select {
		case ev, open := <-h.Events():
			if !open {
				return got
			}
			if ev.Lag > 0 {
				continue
			}
			got = append(got, run.ResultKey{RID: ev.Emission.RID, TID: ev.Emission.TID})
		case <-deadline:
			t.Fatalf("timed out waiting for stream close after %d results", len(got))
		}
	}
}

// collectUntil reads a handle's stream until every required key has been
// seen, accumulating into seen. Duplicates (a result delivered twice over
// the handle's lifetime) and keys outside allowed fail the test.
func collectUntil(t *testing.T, h *Handle, required, allowed, seen map[run.ResultKey]bool, timeout time.Duration) {
	t.Helper()
	remaining := 0
	for k := range required {
		if !seen[k] {
			remaining++
		}
	}
	deadline := time.After(timeout)
	for remaining > 0 {
		select {
		case ev, open := <-h.Events():
			if !open {
				t.Fatalf("stream closed with %d required results outstanding", remaining)
			}
			if ev.Lag > 0 {
				continue
			}
			k := run.ResultKey{RID: ev.Emission.RID, TID: ev.Emission.TID}
			if seen[k] {
				t.Errorf("duplicate result %v", k)
			}
			if !allowed[k] {
				t.Errorf("result %v outside the allowed set", k)
			}
			if required[k] && !seen[k] {
				remaining--
			}
			seen[k] = true
		case <-deadline:
			t.Fatalf("timed out with %d required results outstanding", remaining)
		}
	}
}

func asSet(keys []run.ResultKey) map[run.ResultKey]bool {
	m := make(map[run.ResultKey]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// TestSessionStandingQueryStreamsMutations is the end-to-end continuous
// query check: a standing query drains the base data, stays open, and a
// later append streams the new final results to it without retraction or
// duplication; a non-standing sibling's stream closes at the base drain
// and receives nothing from the mutation.
func TestSessionStandingQueryStreamsMutations(t *testing.T) {
	const dims, full, base = 3, 60, 45
	w := testWorkload(t, 2, dims)
	fullR, fullT := testData(t, full, dims, 41)

	// References: the base dataset (what both queries drain first), the
	// intermediate dataset (R appended, T not yet — the two mutations land
	// separately, so finals against it may stream between them), and the
	// final dataset the standing query must converge to.
	baseRef := batchReference(t, testWorkload(t, 2, dims), cloneRel(fullR, base), cloneRel(fullT, base))
	interRef := batchReference(t, testWorkload(t, 2, dims), fullR, cloneRel(fullT, base))
	finalRef := batchReference(t, testWorkload(t, 2, dims), fullR, fullT)

	s := openFrom(t, w, cloneRel(fullR, base), cloneRel(fullT, base), 0)
	defer s.Close()
	standing, plain := w.Queries[0], w.Queries[1]
	standing.Standing = true
	hs, err := s.Submit(standing, 0)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := s.Submit(plain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	// The plain query finishes with exactly the base result set and its
	// stream closes — the engine seals it, so the mutation below cannot
	// reopen it. Its close also means the engine fully drained the base
	// data, so the standing query's base results are all buffered.
	plainGot := collectAll(t, hp, 5*time.Second)
	if !reflect.DeepEqual(asSet(plainGot), asSet(baseRef.ResultSet(1))) {
		t.Errorf("plain query delivered %d results, want base set of %d", len(plainGot), len(baseRef.ResultSet(1)))
	}
	baseSet := asSet(baseRef.ResultSet(0))
	seen := make(map[run.ResultKey]bool)
	collectUntil(t, hs, baseSet, baseSet, seen, 5*time.Second)
	if hs.State() != string(StateRunning) {
		t.Fatalf("standing query state %q after drain, want running", hs.State())
	}

	res, err := s.Mutate(Mutation{Table: "r", Append: rowsFrom(fullR, base, full)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != full-base || res.IDs[0] != base {
		t.Fatalf("reserved IDs %v, want %d starting at %d", res.IDs, full-base, base)
	}
	if _, err := s.Mutate(Mutation{Table: "t", Append: rowsFrom(fullT, base, full)}); err != nil {
		t.Fatal(err)
	}

	// The standing stream must deliver every final-dataset result, never
	// duplicate, and emit nothing outside what was final at some point of
	// the schedule: base, intermediate (between the two appends) or final.
	finalSet := asSet(finalRef.ResultSet(0))
	allowed := asSet(interRef.ResultSet(0))
	for k := range baseSet {
		allowed[k] = true
	}
	for k := range finalSet {
		allowed[k] = true
	}
	collectUntil(t, hs, finalSet, allowed, seen, 10*time.Second)

	// The plain query's closed stream must not have received mutation
	// results: its report row still matches the base set.
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range st.Queries {
		if q.ID == hp.ID() && q.Delivered != len(baseRef.ResultSet(1)) {
			t.Errorf("sealed query delivered %d results after mutation, want %d", q.Delivered, len(baseRef.ResultSet(1)))
		}
		if q.ID == hs.ID() && !q.Standing {
			t.Error("standing flag missing from stats")
		}
	}
	if st.Mutations.Appended != 2*(full-base) {
		t.Errorf("mutation stats appended %d, want %d", st.Mutations.Appended, 2*(full-base))
	}

	if err := s.Cancel(hs.ID()); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionAnchoredMutationWaits pins the anchor gate: a mutation
// anchored beyond the drain time is queued (Applied false, Pending 1),
// survives the engine going idle only via the idle flush, and the session
// still converges to the final dataset's results.
func TestSessionAnchoredMutationWaits(t *testing.T) {
	const dims, full, base = 3, 50, 40
	w := testWorkload(t, 1, dims)
	fullR, fullT := testData(t, full, dims, 43)
	finalRef := batchReference(t, testWorkload(t, 1, dims), fullR, cloneRel(fullT, base))

	s := openFrom(t, w, cloneRel(fullR, base), cloneRel(fullT, base), 0)
	defer s.Close()
	q := w.Queries[0]
	q.Standing = true
	h, err := s.Submit(q, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-start, anchored far in the future: must queue, not fold into the
	// initial dataset.
	res, err := s.Mutate(Mutation{Table: "r", Append: rowsFrom(fullR, base, full), AnchorAt: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied {
		t.Fatal("anchored mutation applied before its anchor")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mutations.Pending != 1 && st.Mutations.Appended == 0 {
		t.Errorf("anchored mutation neither pending nor applied: %+v", st.Mutations)
	}

	// The engine drains the base data long before virtual time 1e9; the
	// idle flush applies the mutation anyway, and the standing query
	// converges to every final result (base-data finals invalidated by the
	// append are the only permitted extras).
	baseRef := batchReference(t, testWorkload(t, 1, dims), cloneRel(fullR, base), cloneRel(fullT, base))
	finalSet := asSet(finalRef.ResultSet(0))
	allowed := asSet(baseRef.ResultSet(0))
	for k := range finalSet {
		allowed[k] = true
	}
	collectUntil(t, h, finalSet, allowed, make(map[run.ResultKey]bool), 10*time.Second)
}

// TestSessionMutateValidation pins the accept-time error surface: bad
// table names, empty mutations, shape mismatches, reserved keys, non-finite
// attributes and invalid deletes are rejected before any ID is reserved,
// and draining sessions reject mutations outright.
func TestSessionMutateValidation(t *testing.T) {
	const dims, n = 3, 30
	w := testWorkload(t, 1, dims)
	r, tt := testData(t, n, dims, 47)
	s := openFrom(t, w, r, tt, 0)

	if _, err := s.Mutate(Mutation{Table: "x", Delete: []int{0}}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := s.Mutate(Mutation{Table: "r"}); err == nil {
		t.Error("empty mutation accepted")
	}
	if _, err := s.Mutate(Mutation{Table: "r", Append: []core.TupleData{{Attrs: []float64{1}, Keys: []int64{1}}}}); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := s.Mutate(Mutation{Table: "t", Append: []core.TupleData{{
		Attrs: make([]float64, tt.Schema.NumAttrs()),
		Keys:  func() []int64 { k := make([]int64, tt.Schema.NumKeys()); k[0] = core.TombstoneKeyT; return k }(),
	}}}); err == nil {
		t.Error("reserved key accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		attrs := make([]float64, r.Schema.NumAttrs())
		attrs[0] = v
		if _, err := s.Mutate(Mutation{Table: "r", Append: []core.TupleData{{Attrs: attrs, Keys: make([]int64, r.Schema.NumKeys())}}}); err == nil {
			t.Errorf("attribute %v accepted", v)
		}
	}
	if _, err := s.Mutate(Mutation{Table: "r", Delete: []int{n + 10}}); err == nil {
		t.Error("out-of-range delete accepted")
	}
	if _, err := s.Mutate(Mutation{Table: "r", Delete: []int{1, 1}}); err == nil {
		t.Error("duplicate delete accepted")
	}
	if _, err := s.Mutate(Mutation{Table: "r", Delete: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mutate(Mutation{Table: "r", Delete: []int{1}}); err == nil {
		t.Error("repeated delete accepted")
	}
	if _, err := s.Mutate(Mutation{Table: "r", AnchorAt: -1, Delete: []int{2}}); err == nil {
		t.Error("negative anchor accepted")
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mutate(Mutation{Table: "r", Delete: []int{3}}); !errors.Is(err, ErrClosed) {
		t.Errorf("mutation on closed session: %v, want ErrClosed", err)
	}
}

// TestSessionDeletesOfReservedRows pins the delete rule's ID horizon: a
// delete may name rows a still-queued anchored append reserved and rows its
// own mutation appends, and each such delete is accepted and then applied
// by the engine without an executor panic (which would cancel the stream).
// Both mutations queue before the start, so they apply back to back at the
// drain, and the standing query converges to the final dataset's results.
func TestSessionDeletesOfReservedRows(t *testing.T) {
	const dims, full, base = 3, 56, 40
	const mid = 48 // rows [base, mid) ride the anchored append, [mid, full) the second mutation
	w := testWorkload(t, 1, dims)
	fullR, fullT := testData(t, full, dims, 59)

	s := openFrom(t, w, cloneRel(fullR, base), cloneRel(fullT, base), 0)
	defer s.Close()
	q := w.Queries[0]
	q.Standing = true
	h, err := s.Submit(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Mutate(Mutation{Table: "r", Append: rowsFrom(fullR, base, mid), AnchorAt: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if first.Applied || first.IDs[0] != base {
		t.Fatalf("anchored append: %+v", first)
	}
	// Two rows the queued append reserved, two of this mutation's own rows
	// and one base row, in no particular order.
	deletes := []int{mid + 1, base + 2, 3, full - 1, base}
	second, err := s.Mutate(Mutation{Table: "R", Append: rowsFrom(fullR, mid, full), Delete: deletes})
	if err != nil {
		t.Fatalf("delete of reserved rows rejected: %v", err)
	}
	if second.Applied || second.IDs[0] != mid {
		t.Fatalf("queued append and delete: %+v", second)
	}
	for _, id := range []int{base + 2, full - 1, full} {
		if _, err := s.Mutate(Mutation{Table: "r", Delete: []int{id}}); err == nil {
			t.Errorf("delete of row %d accepted: already deleted or past every reservation", id)
		}
	}

	// The final dataset: every row appended, the deleted ones tombstoned.
	finalR := cloneRel(fullR, full)
	for _, id := range deletes {
		core.Tombstone(core.TableR, finalR.At(id).Keys)
	}
	finalSet := asSet(batchReference(t, testWorkload(t, 1, dims), finalR, cloneRel(fullT, base)).ResultSet(0))
	allowed := asSet(batchReference(t, testWorkload(t, 1, dims), cloneRel(fullR, base), cloneRel(fullT, base)).ResultSet(0))
	for k := range finalSet {
		allowed[k] = true
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	collectUntil(t, h, finalSet, allowed, make(map[run.ResultKey]bool), 10*time.Second)

	st, err := s.Stats()
	if err != nil {
		t.Fatalf("session closed after applying the deletes: %v", err)
	}
	if m := st.Mutations; m.Pending != 0 || m.Appended != full-base || m.Deleted != len(deletes) {
		t.Errorf("mutation stats %+v, want %d appended, %d deleted, none pending", m, full-base, len(deletes))
	}
	if h.State() != string(StateRunning) {
		t.Fatalf("standing query state %q, want running", h.State())
	}
	if err := s.Cancel(h.ID()); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionPreStartMutationBatchIdentical pins that an unanchored
// pre-start mutation folds into the initial dataset: the session's report
// is byte-identical to a batch run over the mutated relations.
func TestSessionPreStartMutationBatchIdentical(t *testing.T) {
	const dims, full, base = 3, 50, 40
	fullR, fullT := testData(t, full, dims, 53)
	ref := batchReference(t, testWorkload(t, 3, dims), fullR, fullT)

	w := testWorkload(t, 3, dims)
	s := openFrom(t, w, cloneRel(fullR, base), cloneRel(fullT, base), 0)
	if _, err := s.Mutate(Mutation{Table: "r", Append: rowsFrom(fullR, base, full)}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Mutate(Mutation{Table: "t", Append: rowsFrom(fullT, base, full)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatal("pre-start mutation not applied directly")
	}
	for _, q := range w.Queries {
		if _, err := s.Submit(q, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if !reflect.DeepEqual(ref.PerQuery, rep.PerQuery) {
		t.Error("pre-start-mutated session emissions differ from batch over the mutated dataset")
	}
	if !reflect.DeepEqual(ref.Counters, rep.Counters) {
		t.Error("counters differ from batch over the mutated dataset")
	}
}
