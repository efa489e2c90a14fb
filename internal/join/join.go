// Package join implements the relational operators under a skyline-over-join
// query (§2.2): equi-join conditions JC_i, scalar mapping functions F
// (the PROJECT operator), and the coarse cell-level join test via cell
// signatures (§5.1).
package join

import (
	"fmt"

	"caqe/internal/metrics"
	"caqe/internal/tuple"
)

// EquiJoin is a join condition JC: equality between one key column of the
// left relation and one key column of the right relation.
type EquiJoin struct {
	Name     string
	LeftKey  int // key column index in R
	RightKey int // key column index in T
}

// Matches reports whether the tuple pair satisfies the condition.
func (jc EquiJoin) Matches(r, t *tuple.Tuple) bool {
	return r.Key(jc.LeftKey) == t.Key(jc.RightKey)
}

// String renders the condition, e.g. "JC1: R.jk0 = T.jk0".
func (jc EquiJoin) String() string {
	return fmt.Sprintf("%s: R.k%d = T.k%d", jc.Name, jc.LeftKey, jc.RightKey)
}

// MapFunc is one scalar mapping function f_j of the PROJECT operator,
// restricted to the monotone affine form
//
//	f(r, t) = LeftW·r[LeftAttr] + RightW·t[RightAttr] + Bias
//
// with non-negative weights. Monotonicity lets the coarse level derive exact
// output bounds for a cell pair by interval arithmetic (§5.1). Set an
// attribute index to -1 (with weight 0) to ignore that side. The standard
// benchmark mapping is Sum: r[k] + t[k].
type MapFunc struct {
	Name      string
	LeftAttr  int
	RightAttr int
	LeftW     float64
	RightW    float64
	Bias      float64
}

// Sum returns the canonical mapping r[k] + t[k] used throughout the
// evaluation workloads.
func Sum(name string, k int) MapFunc {
	return MapFunc{Name: name, LeftAttr: k, RightAttr: k, LeftW: 1, RightW: 1}
}

// LeftOnly returns a mapping that passes through r[k].
func LeftOnly(name string, k int) MapFunc {
	return MapFunc{Name: name, LeftAttr: k, RightAttr: -1, LeftW: 1}
}

// RightOnly returns a mapping that passes through t[k].
func RightOnly(name string, k int) MapFunc {
	return MapFunc{Name: name, LeftAttr: -1, RightAttr: k, RightW: 1}
}

// Weighted returns LeftW·r[lk] + RightW·t[rk] + bias.
func Weighted(name string, lk, rk int, lw, rw, bias float64) MapFunc {
	return MapFunc{Name: name, LeftAttr: lk, RightAttr: rk, LeftW: lw, RightW: rw, Bias: bias}
}

// Validate reports an error for non-monotone (negative-weight) or malformed
// mappings.
func (f MapFunc) Validate() error {
	if f.LeftW < 0 || f.RightW < 0 {
		return fmt.Errorf("join: mapping %s has negative weight; coarse bounds require monotone mappings", f.Name)
	}
	if f.LeftW > 0 && f.LeftAttr < 0 {
		return fmt.Errorf("join: mapping %s uses the left side but has no left attribute", f.Name)
	}
	if f.RightW > 0 && f.RightAttr < 0 {
		return fmt.Errorf("join: mapping %s uses the right side but has no right attribute", f.Name)
	}
	return nil
}

// Eval applies the mapping to a joined tuple pair.
func (f MapFunc) Eval(r, t *tuple.Tuple) float64 {
	v := f.Bias
	if f.LeftAttr >= 0 {
		v += float64(f.LeftW * r.Attr(f.LeftAttr))
	}
	if f.RightAttr >= 0 {
		v += float64(f.RightW * t.Attr(f.RightAttr))
	}
	return v
}

// Bounds returns the exact output interval of the mapping over the
// cross-product of two axis-aligned input boxes (lR..uR) × (lT..uT).
func (f MapFunc) Bounds(lR, uR, lT, uT []float64) (lo, hi float64) {
	lo, hi = f.Bias, f.Bias
	if f.LeftAttr >= 0 {
		lo += float64(f.LeftW * lR[f.LeftAttr])
		hi += float64(f.LeftW * uR[f.LeftAttr])
	}
	if f.RightAttr >= 0 {
		lo += float64(f.RightW * lT[f.RightAttr])
		hi += float64(f.RightW * uT[f.RightAttr])
	}
	return lo, hi
}

// Project applies a set of mapping functions to a joined pair, producing the
// output point (the PROJECT operator of §2.2).
func Project(fs []MapFunc, r, t *tuple.Tuple) []float64 {
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = f.Eval(r, t)
	}
	return out
}

// projectAppend is Project into a flat packed buffer: the output point is
// appended to flat and returned as a capacity-clamped subslice of it, so a
// batch of results shares one backing allocation.
func projectAppend(flat []float64, fs []MapFunc, r, t *tuple.Tuple) ([]float64, []float64) {
	base := len(flat)
	for _, f := range fs {
		flat = append(flat, f.Eval(r, t))
	}
	return flat, flat[base:len(flat):len(flat)]
}

// Result is one materialized join result: the originating tuple IDs and the
// projected output point.
type Result struct {
	RID, TID int
	Out      []float64
}

// HashJoin materializes the same result as a nested-loop join using a hash
// table on the right side, into fresh allocations. The virtual clock is
// charged one coarse operation per right tuple inserted during the build —
// real work the nested-loop strategies never perform; leaving it free would
// time-advantage every hash-join strategy's emissions over theirs — then
// one probe per left tuple (plus one result cost per produced result),
// reflecting the cheaper per-tuple work of a hash join; baselines that the
// paper describes as nested-loop style should use Scratch.NestedLoop to
// preserve relative costs.
func HashJoin(jc EquiJoin, fs []MapFunc, rs, ts []*tuple.Tuple, clock *metrics.Clock) []Result {
	idx := make(map[int64][]*tuple.Tuple, len(ts))
	for _, t := range ts {
		if clock != nil {
			clock.CountCellOp(1)
		}
		idx[t.Key(jc.RightKey)] = append(idx[t.Key(jc.RightKey)], t)
	}
	var dst []Result
	var flat []float64
	for _, r := range rs {
		if clock != nil {
			clock.CountJoinProbe(1)
		}
		for _, t := range idx[r.Key(jc.LeftKey)] {
			if clock != nil {
				clock.CountJoinResult(1)
			}
			var out []float64
			flat, out = projectAppend(flat, fs, r, t)
			dst = append(dst, Result{RID: r.ID, TID: t.ID, Out: out})
		}
	}
	return dst
}

// ---------------------------------------------------------------------------
// Scratch: reusable join buffers
//
// A Scratch owns the result headers, the flat coordinate backing of the
// output points and the right side's keys, so a caller that joins many cell
// pairs in sequence (the region executor, the nested-loop baselines)
// performs zero steady-state allocations per join.

// Scratch holds reusable join buffers. The zero value is ready to use. A
// Scratch must not be used concurrently, and the results of a call are
// valid only until the next call on the same Scratch (the buffers are
// recycled). Callers that need durable results use a Scratch of their own
// per join and let it go.
type Scratch struct {
	results []Result
	flat    []float64 // packed backing for Result.Out
	keys    []int64   // the right side's join keys, gathered once per call
}

// NestedLoop materializes the equi-join of two tuple slices under jc into
// the scratch buffers, projecting with fs and charging every probe and
// result to the clock (nil charges nothing). It is the tuple-level join
// primitive used for cell pairs and the full-relation baseline path.
// The projected output points are packed into one flat buffer that every
// Result.Out aliases. Results come in (left, right) order.
//
// Every pair is a probe, so the |rs|·|ts| probes and the results are
// charged with one call each once the loop is done: nothing reads the clock
// in between, and it counts in integers, so the readings are the per-pair
// ones. The right side's keys are gathered into the scratch first, so a
// probe compares two integers from a contiguous array instead of loading
// two tuples' key slices.
func (s *Scratch) NestedLoop(jc EquiJoin, fs []MapFunc, rs, ts []*tuple.Tuple, clock *metrics.Clock) []Result {
	keys := s.keys[:0]
	for _, t := range ts {
		keys = append(keys, t.Key(jc.RightKey))
	}
	dst, flat := s.results[:0], s.flat[:0]
	for _, r := range rs {
		k := r.Key(jc.LeftKey)
		for j, tk := range keys {
			if tk != k {
				continue
			}
			t := ts[j]
			var out []float64
			flat, out = projectAppend(flat, fs, r, t)
			dst = append(dst, Result{RID: r.ID, TID: t.ID, Out: out})
		}
	}
	if clock != nil {
		clock.CountJoinProbe(int64(len(rs)) * int64(len(ts)))
		clock.CountJoinResult(int64(len(dst)))
	}
	s.results, s.flat, s.keys = dst, flat, keys
	return dst
}
