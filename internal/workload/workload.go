// Package workload defines the multi-query workload model of the paper
// (Figure 1): a set of skyline-over-join queries over shared base tables
// R and T, each with a join condition JC_i, a projection onto the shared
// output space X via scalar mapping functions, a skyline preference P_i
// over X, a priority, and a progressiveness contract.
package workload

import (
	"fmt"

	"caqe/internal/contract"
	"caqe/internal/join"
	"caqe/internal/preference"
	"caqe/internal/skycube"
)

// MaxQueries is the hard cap on the number of queries one workload (or one
// online session) can hold: query sets are represented as 64-bit masks
// (skycube.QSet) throughout the engine. It doubles as the upper bound on a
// server's concurrent-admission cap — far above the paper's |S_Q| ≤ 11.
const MaxQueries = 64

// Priority bands of §7.1.
const (
	PriorityHighMin   = 0.7
	PriorityMediumMin = 0.4
)

// PriorityBand names the band a priority value falls into.
func PriorityBand(p float64) string {
	switch {
	case p >= PriorityHighMin:
		return "HIGH"
	case p >= PriorityMediumMin:
		return "MEDIUM"
	default:
		return "LOW"
	}
}

// Query is one skyline-over-join query SJ_{JC, F, X, P}(R, T).
type Query struct {
	Name     string
	JC       int                 // index into Workload.JoinConds
	Pref     preference.Subspace // skyline dimensions (indices into Workload.OutDims)
	Priority float64             // [0, 1]; see PriorityBand
	Contract contract.Contract   // progressiveness contract C_i

	// Standing marks a continuous query: a session keeps it open after it
	// drains the current data so base-table mutations can stream further
	// results to it. Standing queries finish only on cancellation or
	// session close. The core executor ignores the flag — done-ness stays
	// QueryDone — it is session-level lifecycle policy.
	Standing bool
}

// Validate is the per-query admission rule, stated once for every path a
// query can enter by (a batch workload, core.Exec.Admit, a session): the
// join condition and every preference dimension must exist in a vocabulary
// of numJoinConds join conditions and numOutDims output dimensions, the
// preference must be non-empty, the priority within [0,1] and the contract
// set. Callers prefix the error with their package name.
func (q Query) Validate(numJoinConds, numOutDims int) error {
	if q.JC < 0 || q.JC >= numJoinConds {
		return fmt.Errorf("query %s references join condition %d of %d", q.Name, q.JC, numJoinConds)
	}
	if len(q.Pref) == 0 {
		return fmt.Errorf("query %s has an empty skyline preference", q.Name)
	}
	for _, d := range q.Pref {
		if d < 0 || d >= numOutDims {
			return fmt.Errorf("query %s preference uses output dimension %d of %d", q.Name, d, numOutDims)
		}
	}
	if q.Priority < 0 || q.Priority > 1 {
		return fmt.Errorf("query %s priority %g outside [0,1]", q.Name, q.Priority)
	}
	if q.Contract == nil {
		return fmt.Errorf("query %s has no contract", q.Name)
	}
	return nil
}

// Workload is a set of queries over a shared output space. OutDims is the
// union of all mapping functions used by any query (the workload's
// d-dimensional output abstraction of §4); each query's preference indexes
// into it.
type Workload struct {
	JoinConds []join.EquiJoin
	OutDims   []join.MapFunc
	Queries   []Query
}

// Validate checks structural consistency.
func (w *Workload) Validate() error {
	if len(w.Queries) == 0 {
		return fmt.Errorf("workload: no queries")
	}
	if len(w.Queries) > MaxQueries {
		return fmt.Errorf("workload: %d queries exceeds the %d-query limit", len(w.Queries), MaxQueries)
	}
	if len(w.JoinConds) == 0 {
		return fmt.Errorf("workload: no join conditions")
	}
	for i, f := range w.OutDims {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("workload: output dimension %d: %w", i, err)
		}
	}
	for i, q := range w.Queries {
		if err := q.Validate(len(w.JoinConds), len(w.OutDims)); err != nil {
			return fmt.Errorf("workload: %w (query %d)", err, i)
		}
	}
	return nil
}

// Prefs returns the per-query skyline preferences, index-aligned with
// Queries, as required by skycube.BuildCuboid.
func (w *Workload) Prefs() []preference.Subspace {
	out := make([]preference.Subspace, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = q.Pref
	}
	return out
}

// QueriesWithJC returns the set of queries using join condition jc.
func (w *Workload) QueriesWithJC(jc int) skycube.QSet {
	var s skycube.QSet
	for i, q := range w.Queries {
		if q.JC == jc {
			s = s.Add(i)
		}
	}
	return s
}

// AllQueries returns the set of all query indices.
func (w *Workload) AllQueries() skycube.QSet {
	var s skycube.QSet
	for i := range w.Queries {
		s = s.Add(i)
	}
	return s
}

// ByPriority returns query indices sorted by descending priority (the
// processing order used by the non-shared baselines, §7.1), ties broken by
// index for determinism.
func (w *Workload) ByPriority() []int {
	idx := make([]int, len(w.Queries))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j-1], idx[j]
			if w.Queries[a].Priority < w.Queries[b].Priority ||
				(w.Queries[a].Priority == w.Queries[b].Priority && a > b) {
				idx[j-1], idx[j] = b, a
			} else {
				break
			}
		}
	}
	return idx
}
