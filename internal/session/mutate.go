package session

import (
	"fmt"

	"caqe/internal/core"
	"caqe/internal/tuple"
)

// Mutation is one batch of base-table changes submitted to a session:
// rows to append and/or row IDs to delete on one table, anchored at a
// virtual time. Appends apply before deletes within one mutation, and
// mutations apply strictly in submission order (FIFO) — an anchor only
// delays the queue's head, it never reorders.
type Mutation struct {
	// Table names the target relation: "r" or "t".
	Table string `json:"table"`
	// Append holds new rows shaped like the target schema.
	Append []core.TupleData `json:"append,omitempty"`
	// Delete holds row IDs to retire. Deleted rows keep their IDs
	// (tombstoned in place); results already emitted for them stand.
	Delete []int `json:"delete,omitempty"`
	// AnchorAt is the virtual time (seconds) at which the mutation
	// becomes due. Zero means "now". A mutation submitted before the
	// session starts with AnchorAt 0 applies directly to the loaded
	// relations — it becomes part of the initial batch dataset. Anchored
	// mutations replay deterministically: the same submission schedule
	// against the same data yields a byte-identical report.
	AnchorAt float64 `json:"anchorAt,omitempty"`
}

// MutationResult reports an accepted mutation: the row IDs reserved for
// its appended rows (in order), and whether it has already been applied
// to the engine (false while it waits on its anchor).
type MutationResult struct {
	IDs     []int `json:"ids,omitempty"`
	Applied bool  `json:"applied"`
}

// MutationStats accumulates the session's applied mutations: the engine's
// counters, summed, and the accepted mutations awaiting their anchor.
type MutationStats struct {
	core.DeltaStats
	Pending int `json:"pending"`
}

// Mutate submits one batch of base-table changes. The mutation is
// validated and its append row IDs reserved immediately; it applies when
// its anchor comes due (or on the spot if it already is). Standing
// queries then stream the new results; non-standing queries whose
// streams already closed are unaffected — a finished stream never owes
// results. Draining sessions reject mutations.
func (s *Session) Mutate(m Mutation) (MutationResult, error) {
	var res MutationResult
	var err error
	derr := s.do(func() { res, err = s.mutate(m) })
	if derr != nil {
		return MutationResult{}, derr
	}
	return res, err
}

func (s *Session) relFor(tab core.Table) *tuple.Relation {
	if tab == core.TableR {
		return s.cfg.R
	}
	return s.cfg.T
}

// mutate validates, reserves IDs, and applies or queues (executor
// goroutine). Everything the engine would reject is rejected here, so a
// queued mutation can never fail at apply time.
func (s *Session) mutate(m Mutation) (MutationResult, error) {
	var res MutationResult
	if s.draining {
		return res, ErrDraining
	}
	tab, ok := core.ParseTable(m.Table)
	if !ok {
		return res, fmt.Errorf("session: unknown table %q (want \"r\" or \"t\")", m.Table)
	}
	if len(m.Append) == 0 && len(m.Delete) == 0 {
		return res, fmt.Errorf("session: empty mutation for table %q", m.Table)
	}
	if m.AnchorAt < 0 {
		return res, fmt.Errorf("session: mutation anchor %g is negative", m.AnchorAt)
	}
	side := int(tab)
	rel := s.relFor(tab)
	for i, row := range m.Append {
		if err := row.Check(&rel.Schema); err != nil {
			return res, fmt.Errorf("session: append row %d to %s: %w", i, m.Table, err)
		}
	}
	// Deletes are validated by the engine's rule against the session's ID
	// horizon — including IDs reserved by still-queued appends and by this
	// mutation's own, which FIFO order guarantees exist by the time it
	// applies.
	if err := core.CheckDelete(m.Table, m.Delete, s.nextID[side]+len(m.Append), s.gone[side]); err != nil {
		return res, fmt.Errorf("session: %w", err)
	}

	ids := make([]int, len(m.Append))
	for i := range ids {
		ids[i] = s.nextID[side] + i
	}
	s.nextID[side] += len(m.Append)
	for _, id := range m.Delete {
		s.gone[side][id] = true
	}
	res.IDs = ids

	if !s.started && m.AnchorAt == 0 && len(s.muts) == 0 {
		// Pre-start, unanchored, nothing queued ahead: fold the mutation
		// into the loaded relations so the initial batch build sees it.
		s.applyPreStart(tab, m)
		res.Applied = true
		return res, nil
	}
	s.muts = append(s.muts, pendingMutation{tab: tab, m: m, ids: ids})
	s.applyDueMutations(false)
	res.Applied = len(s.muts) == 0
	return res, nil
}

// applyPreStart folds an unanchored pre-start mutation into the loaded
// relations: appended rows join the base data, deleted rows are
// tombstoned in place (reserved join keys that can never match), so the
// batch build over the mutated relations is the session's time-zero
// state.
func (s *Session) applyPreStart(tab core.Table, m Mutation) {
	rel := s.relFor(tab)
	for _, row := range m.Append {
		rel.MustAppend(append([]float64(nil), row.Attrs...), append([]int64(nil), row.Keys...))
	}
	for _, id := range m.Delete {
		core.Tombstone(tab, rel.At(id).Keys)
	}
	s.mstats.Appended += len(m.Append)
	s.mstats.Deleted += len(m.Delete)
}

// applyDueMutations drains the head of the mutation queue while it is
// due. With idle true (the engine has no work left, so the virtual clock
// cannot advance on its own) the first head applies regardless of its
// anchor — applying it may revive work that advances the clock toward
// the next. Returns whether anything applied.
func (s *Session) applyDueMutations(idle bool) bool {
	if s.x == nil {
		return false
	}
	applied := false
	for len(s.muts) > 0 {
		head := s.muts[0]
		if !idle && s.x.Now() < head.m.AnchorAt {
			break
		}
		s.muts = s.muts[1:]
		s.applyMutation(head)
		applied = true
		idle = false
	}
	return applied
}

// applyMutation hands one accepted mutation to the engine. Acceptance
// already validated everything the engine checks, so an engine error
// here is an invariant violation, not a user error.
func (s *Session) applyMutation(p pendingMutation) {
	if len(p.m.Append) > 0 {
		ids, d, err := s.x.Append(p.tab, p.m.Append)
		if err != nil {
			panic(fmt.Sprintf("session: queued append failed: %v", err))
		}
		if len(ids) > 0 && ids[0] != p.ids[0] {
			panic(fmt.Sprintf("session: engine assigned row ID %d, reserved %d", ids[0], p.ids[0]))
		}
		s.mstats.Add(d)
	}
	if len(p.m.Delete) > 0 {
		d, err := s.x.Delete(p.tab, p.m.Delete)
		if err != nil {
			panic(fmt.Sprintf("session: queued delete failed: %v", err))
		}
		s.mstats.Add(d)
	}
}
