// Package contract implements the paper's progressiveness contract model
// (§3): utility functions that map each result tuple to a utility score
// based on its emission time and/or the output rate, the progressiveness
// score pScore (Definition 5, Eq. 7), and the run-time satisfaction metric
// that feeds the optimizer (§6, Eq. 11).
//
// The five contract classes of Table 2 are provided as constructors C1–C5.
// Times are virtual seconds (see internal/metrics); contract parameters such
// as t_C1 are expressed in the same unit.
package contract

import (
	"fmt"
	"math"
)

// Contract describes one query's progressiveness requirement. A Contract is
// immutable; per-run evaluation state lives in a Tracker.
type Contract interface {
	// Name returns the contract's label, e.g. "C3(t=10s)".
	Name() string
	// NewTracker creates the evaluation state for one execution run.
	// estTotal is N, the (estimated) final result cardinality of the query,
	// used by cardinality-based contracts; pass 0 if unknown.
	NewTracker(estTotal int) Tracker
}

// Tracker accumulates the emissions of one query during one run and scores
// them under the contract.
type Tracker interface {
	// Observe records one result tuple emitted at virtual time ts (seconds).
	// Observations must be non-decreasing in ts.
	Observe(ts float64)
	// Finalize closes the run at virtual time end (seconds), resolving any
	// utility that depends on interval completion. Must be called once,
	// after the last Observe.
	Finalize(end float64)
	// PScore returns Σ_k ϑ(τ_k) over all observed tuples (Eq. 7). Valid
	// after Finalize; before Finalize it reflects provisional utilities.
	PScore() float64
	// Count returns the number of observed tuples.
	Count() int
	// Runtime returns the run-time contract satisfaction metric v(Q, t):
	// the average (provisional) utility of all results reported so far,
	// clamped to [0, 1]. A query with no results yet scores 0.
	Runtime() float64
	// Utilities returns the per-tuple utility scores in observation order
	// (resolved values after Finalize).
	Utilities() []float64
}

// AvgSatisfaction converts a finalized tracker into the paper's "average
// satisfaction metric of each workload query": mean per-tuple utility,
// clamped to [0, 1]. Queries with zero results score 0 — an execution that
// never delivers anything satisfies nobody.
func AvgSatisfaction(t Tracker) float64 {
	n := t.Count()
	if n == 0 {
		return 0
	}
	return clamp01(t.PScore() / float64(n))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ---------------------------------------------------------------------------
// Time-based contracts (§3.2.1)

// timeFunc is a pure per-tuple utility of the emission timestamp.
type timeFunc struct {
	name string
	fn   func(ts float64) float64
}

func (c *timeFunc) Name() string { return c.name }

func (c *timeFunc) NewTracker(estTotal int) Tracker {
	return &timeTracker{fn: c.fn}
}

type timeTracker struct {
	fn    func(float64) float64
	utils []float64
	sum   float64
}

func (t *timeTracker) Observe(ts float64) {
	u := t.fn(ts)
	t.utils = append(t.utils, u)
	t.sum += u
}
func (t *timeTracker) Finalize(float64)     {}
func (t *timeTracker) PScore() float64      { return t.sum }
func (t *timeTracker) Count() int           { return len(t.utils) }
func (t *timeTracker) Utilities() []float64 { return t.utils }
func (t *timeTracker) Runtime() float64 {
	if len(t.utils) == 0 {
		return 0
	}
	return clamp01(t.sum / float64(len(t.utils)))
}

// C1 is the hard-deadline contract of Table 2: utility 1 for tuples emitted
// at or before tHard (seconds), 0 after.
func C1(tHard float64) Contract {
	return &timeFunc{
		name: fmt.Sprintf("C1(t=%gs)", tHard),
		fn: func(ts float64) float64 {
			if ts <= tHard {
				return 1
			}
			return 0
		},
	}
}

// C2 is the logarithmic-decay contract of Table 2: ϑ(τ) = 1/log10(τ.ts),
// clamped to [0, 1] (tuples within the first 10 virtual seconds have full
// utility). Under C2 no strategy can reach 100% satisfaction, as the paper
// notes for Figure 11a.
func C2() Contract {
	return &timeFunc{
		name: "C2",
		fn: func(ts float64) float64 {
			if ts <= 10 {
				return 1
			}
			return clamp01(1 / math.Log10(ts))
		},
	}
}

// C3 is the soft-deadline contract of Table 2: utility 1 up to tSoft, then
// 1/(ts - tSoft), clamped to 1 (the paper's Example: a tuple at 12 s under
// t_C3 = 10 s has utility 0.5).
func C3(tSoft float64) Contract {
	return &timeFunc{
		name: fmt.Sprintf("C3(t=%gs)", tSoft),
		fn: func(ts float64) float64 {
			if ts <= tSoft {
				return 1
			}
			return clamp01(1 / (ts - tSoft))
		},
	}
}

// ---------------------------------------------------------------------------
// Cardinality-based contract C4 (§3.2.2, Eq. 3)

// C4 requires the given fraction of the final result to be delivered in
// every interval of the given length (seconds): tuples in an interval that
// meets the quota score 1; tuples in an interval that falls short score
// n/(N·frac) − 1 (a negative penalty proportional to the shortfall).
func C4(frac, interval float64) Contract {
	if frac <= 0 || interval <= 0 {
		panic("contract: C4 requires positive fraction and interval")
	}
	return &cardContract{frac: frac, interval: interval,
		name: fmt.Sprintf("C4(%.0f%%/%gs)", frac*100, interval)}
}

type cardContract struct {
	frac     float64
	interval float64
	name     string
}

func (c *cardContract) Name() string { return c.name }
func (c *cardContract) NewTracker(estTotal int) Tracker {
	return &cardTracker{c: c, est: estTotal}
}

type cardTracker struct {
	c   *cardContract
	est int

	utils     []float64 // resolved utilities for closed intervals
	sum       float64
	curIdx    int // index of the open interval
	curCount  int // tuples observed in the open interval
	finalized bool
}

func (t *cardTracker) quota() float64 {
	if t.est <= 0 {
		return 1 // unknown total: any delivery meets the quota
	}
	return float64(t.est) * t.c.frac
}

// intervalUtility resolves Eq. 3 for a closed interval with n tuples.
func (t *cardTracker) intervalUtility(n int) float64 {
	q := t.quota()
	if float64(n) >= q {
		return 1
	}
	return float64(n)/q - 1
}

// closeThrough resolves the open interval once idx lies past it and opens
// interval idx. The intervals skipped in between are empty, so the cost does
// not grow with their number however short the contract's interval is.
func (t *cardTracker) closeThrough(idx int) {
	if t.curIdx >= idx {
		return
	}
	if t.curCount > 0 {
		u := t.intervalUtility(t.curCount)
		for i := 0; i < t.curCount; i++ {
			t.utils = append(t.utils, u)
			t.sum += u
		}
	}
	t.curCount = 0
	t.curIdx = idx
}

// intervalIndex returns the index of the interval containing ts, saturating
// where the quotient leaves the integer range (a float-to-int conversion out
// of range is implementation-defined) with room left for Finalize's +1.
func (t *cardTracker) intervalIndex(ts float64) int {
	q := ts / t.c.interval
	if !(q < math.MaxInt/2) {
		return math.MaxInt / 2
	}
	return int(q)
}

func (t *cardTracker) Observe(ts float64) {
	t.closeThrough(t.intervalIndex(ts))
	t.curCount++
}

func (t *cardTracker) Finalize(end float64) {
	if t.finalized {
		return
	}
	t.closeThrough(t.intervalIndex(end) + 1)
	t.finalized = true
}

func (t *cardTracker) PScore() float64 {
	s := t.sum
	if t.curCount > 0 { // provisional utility for the open interval
		s += float64(t.curCount) * t.intervalUtility(t.curCount)
	}
	return s
}

func (t *cardTracker) Count() int { return len(t.utils) + t.curCount }

func (t *cardTracker) Runtime() float64 {
	n := t.Count()
	if n == 0 {
		return 0
	}
	return clamp01(t.PScore() / float64(n))
}

func (t *cardTracker) Utilities() []float64 {
	out := append([]float64(nil), t.utils...)
	if t.curCount > 0 {
		u := t.intervalUtility(t.curCount)
		for i := 0; i < t.curCount; i++ {
			out = append(out, u)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Hybrid contract C5 (§3.3, Eq. 5 / Table 2)

// C5 is the hybrid contract of Table 2: ϑ(τ) = ϑ_card(τ) · ϑ_time(τ) with
// ϑ_time(τ) = 1/τ.ts (clamped to 1 within the first second) and ϑ_card the
// C4 utility with the given fraction and interval.
func C5(frac, interval float64) Contract {
	if frac <= 0 || interval <= 0 {
		panic("contract: C5 requires positive fraction and interval")
	}
	return &hybridContract{frac: frac, interval: interval,
		name: fmt.Sprintf("C5(%.0f%%/%gs)", frac*100, interval)}
}

type hybridContract struct {
	frac     float64
	interval float64
	name     string
}

func (c *hybridContract) Name() string { return c.name }
func (c *hybridContract) NewTracker(estTotal int) Tracker {
	return &hybridTracker{
		card: &cardTracker{c: &cardContract{frac: c.frac, interval: c.interval}, est: estTotal},
	}
}

// hybridTracker composes the cardinality tracker with the per-tuple time
// decay. Because the cardinality component of an interval resolves when the
// interval closes, the product is applied per tuple at resolution time.
type hybridTracker struct {
	card      *cardTracker
	timeUtils []float64 // 1/ts per observed tuple, observation order
}

func timeDecay(ts float64) float64 {
	if ts <= 1 {
		return 1
	}
	return 1 / ts
}

func (t *hybridTracker) Observe(ts float64) {
	t.card.Observe(ts)
	t.timeUtils = append(t.timeUtils, timeDecay(ts))
}

func (t *hybridTracker) Finalize(end float64) { t.card.Finalize(end) }

func (t *hybridTracker) Utilities() []float64 {
	cu := t.card.Utilities()
	out := make([]float64, len(cu))
	for i := range cu {
		// The 1/ts decay only scales down reward. A quota-shortfall
		// penalty (negative cardinality utility) must pass through
		// undiluted: multiplying a negative utility by a decay < 1 would
		// *shrink* the penalty as delivery gets later, rewarding exactly
		// the behaviour the hybrid contract is meant to punish.
		if cu[i] < 0 {
			out[i] = cu[i]
		} else {
			out[i] = cu[i] * t.timeUtils[i]
		}
	}
	return out
}

func (t *hybridTracker) PScore() float64 {
	s := 0.0
	for _, u := range t.Utilities() {
		s += u
	}
	return s
}

func (t *hybridTracker) Count() int { return t.card.Count() }

func (t *hybridTracker) Runtime() float64 {
	n := t.Count()
	if n == 0 {
		return 0
	}
	return clamp01(t.PScore() / float64(n))
}

// ---------------------------------------------------------------------------
// Custom contracts

// Func wraps an arbitrary per-tuple time-based utility function as a
// Contract, supporting the paper's statement that users can flexibly define
// their own progressive utility functions (Definition 4).
func Func(name string, fn func(ts float64) float64) Contract {
	return &timeFunc{name: name, fn: fn}
}
