// Package run defines the execution report shared by CAQE and every
// baseline strategy: per-query result emissions with virtual timestamps,
// contract trackers, and operation counters. Comparing strategies on the
// paper's metrics (satisfaction, join results, skyline comparisons,
// execution time) reduces to comparing Reports.
package run

import (
	"fmt"
	"sort"

	"caqe/internal/contract"
	"caqe/internal/metrics"
	"caqe/internal/trace"
	"caqe/internal/workload"
)

// Emission is one result tuple delivered to one query.
type Emission struct {
	Query    int
	RID, TID int       // originating tuple IDs in R and T
	Out      []float64 // projected output point
	Time     float64   // virtual seconds at delivery
}

// Report is the outcome of executing a workload under one strategy.
type Report struct {
	Strategy string
	PerQuery [][]Emission       // emissions per query, in delivery order
	Trackers []contract.Tracker // finalized contract trackers per query
	Counters metrics.Counters
	EndTime  float64 // virtual seconds when the workload completed

	// OnEmit, when set before execution, is invoked synchronously for every
	// delivered result — the progressive consumption hook for applications
	// that act on results as they become final.
	OnEmit func(Emission)

	// tracer, when attached via StartTrace, receives the run's start/end
	// events and one emit event per batch of consecutive deliveries to the
	// same query. Emission tracing lives here, in the report shared by
	// every strategy, so each technique's delivery schedule is traced
	// through the exact same code path.
	tracer    trace.Tracer
	batch     trace.Event
	batchOpen bool
}

// NewReport allocates a report for the given workload, creating one
// contract tracker per query. estTotals supplies N per query for
// cardinality-based contracts (Table 2's "N is the total of output tuples
// for query Q"); pass nil if unknown.
func NewReport(strategy string, w *workload.Workload, estTotals []int) *Report {
	r := &Report{
		Strategy: strategy,
		PerQuery: make([][]Emission, len(w.Queries)),
		Trackers: make([]contract.Tracker, len(w.Queries)),
	}
	for i, q := range w.Queries {
		est := 0
		if estTotals != nil {
			est = estTotals[i]
		}
		r.Trackers[i] = q.Contract.NewTracker(est)
	}
	return r
}

// AddQuery extends a (possibly running) report with one more query slot
// using the given contract tracker, returning the new query's report index.
// The online session subsystem calls it when a query is admitted mid-run;
// batch executions never do.
func (r *Report) AddQuery(t contract.Tracker) int {
	r.PerQuery = append(r.PerQuery, nil)
	r.Trackers = append(r.Trackers, t)
	return len(r.Trackers) - 1
}

// StartTrace attaches a trace sink and emits the run-start event. Call it
// after NewReport and before the first Emit; a nil tracer is a no-op, so
// callers can pass their options field through unconditionally.
func (r *Report) StartTrace(tr trace.Tracer) {
	if tr == nil {
		return
	}
	r.tracer = tr
	ev := trace.New(trace.KindStart)
	ev.Strategy = r.Strategy
	tr.Trace(ev)
}

// Tracer returns the attached trace sink (nil when tracing is disabled).
func (r *Report) Tracer() trace.Tracer { return r.tracer }

// Emit records a delivery and feeds the query's contract tracker.
func (r *Report) Emit(e Emission) {
	r.PerQuery[e.Query] = append(r.PerQuery[e.Query], e)
	r.Trackers[e.Query].Observe(e.Time)
	if r.OnEmit != nil {
		r.OnEmit(e)
	}
	if r.tracer != nil {
		r.traceEmit(e)
	}
}

// traceEmit coalesces consecutive deliveries to the same query into one
// emit event spanning [T, TEnd]. The open batch is flushed when delivery
// switches to another query, when a producer interposes a non-emission
// event (via FlushTrace), or at Finish.
func (r *Report) traceEmit(e Emission) {
	if r.batchOpen && r.batch.Query == e.Query {
		r.batch.Count++
		r.batch.TEnd = e.Time
		return
	}
	r.FlushTrace()
	r.batch = trace.New(trace.KindEmit)
	r.batch.Strategy = r.Strategy
	r.batch.Query = e.Query
	r.batch.T = e.Time
	r.batch.TEnd = e.Time
	r.batch.Count = 1
	r.batchOpen = true
}

// FlushTrace closes the pending emission batch, if any. Producers call it
// before tracing a non-emission event so the stream stays causally ordered.
func (r *Report) FlushTrace() {
	if !r.batchOpen {
		return
	}
	r.batchOpen = false
	r.tracer.Trace(r.batch)
}

// Finish finalizes every tracker at the given end time (virtual seconds)
// and records the counters. With a tracer attached it also closes the
// event stream: the pending emission batch and the run-end event carrying
// the final counters.
func (r *Report) Finish(end float64, c metrics.Counters) {
	r.EndTime = end
	r.Counters = c
	for _, t := range r.Trackers {
		t.Finalize(end)
	}
	if r.tracer != nil {
		r.FlushTrace()
		ev := trace.New(trace.KindEnd)
		ev.Strategy = r.Strategy
		ev.T = end
		ev.EndTime = end
		cc := c
		ev.Counters = &cc
		r.tracer.Trace(ev)
	}
}

// Satisfaction returns the per-query average satisfaction (mean per-tuple
// utility, clamped to [0,1]).
func (r *Report) Satisfaction() []float64 {
	out := make([]float64, len(r.Trackers))
	for i, t := range r.Trackers {
		out[i] = contract.AvgSatisfaction(t)
	}
	return out
}

// AvgSatisfaction returns the workload-level average satisfaction — the
// quantity plotted in Figures 9 and 11.
func (r *Report) AvgSatisfaction() float64 {
	s := r.Satisfaction()
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// ResultKey identifies one join result for set comparison across strategies.
type ResultKey struct{ RID, TID int }

// ResultSet returns the final result set of one query as a sorted key list.
func (r *Report) ResultSet(qi int) []ResultKey {
	keys := make([]ResultKey, 0, len(r.PerQuery[qi]))
	for _, e := range r.PerQuery[qi] {
		keys = append(keys, ResultKey{e.RID, e.TID})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].RID != keys[j].RID {
			return keys[i].RID < keys[j].RID
		}
		return keys[i].TID < keys[j].TID
	})
	return keys
}

// SameResults reports whether two reports delivered identical result sets
// for every query, returning a description of the first difference.
func SameResults(a, b *Report) (bool, string) {
	if len(a.PerQuery) != len(b.PerQuery) {
		return false, fmt.Sprintf("query count %d vs %d", len(a.PerQuery), len(b.PerQuery))
	}
	for qi := range a.PerQuery {
		ka, kb := a.ResultSet(qi), b.ResultSet(qi)
		if len(ka) != len(kb) {
			return false, fmt.Sprintf("query %d: %s has %d results, %s has %d", qi, a.Strategy, len(ka), b.Strategy, len(kb))
		}
		for i := range ka {
			if ka[i] != kb[i] {
				return false, fmt.Sprintf("query %d: result %d differs: %v vs %v", qi, i, ka[i], kb[i])
			}
		}
	}
	return true, ""
}

// TimelinePoint is one sample of a satisfaction-over-time curve.
type TimelinePoint struct {
	Time         float64 // virtual seconds
	Delivered    int     // results delivered up to Time (all queries)
	Satisfaction float64 // workload average satisfaction over deliveries so far
}

// SatisfactionTimeline samples how the workload's average satisfaction and
// delivered-result count evolve over the run, at `samples` evenly spaced
// instants from 0 to EndTime. It replays the emissions through one set of
// fresh trackers in a single incremental pass — each emission is observed
// exactly once, and each sample reads the trackers' provisional scores,
// which for every built-in contract equal the scores a finalize-at-cut
// replay would produce. It is valid only after Finish. Useful for plotting
// the progressiveness profile the paper's figures summarize into a single
// number.
func (r *Report) SatisfactionTimeline(w *workload.Workload, estTotals []int, samples int) []TimelinePoint {
	if samples < 1 {
		samples = 1
	}
	// Merge all emissions in delivery order.
	var all []Emission
	for _, ems := range r.PerQuery {
		all = append(all, ems...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })

	trackers := make([]contract.Tracker, len(w.Queries))
	for qi, q := range w.Queries {
		est := 0
		if estTotals != nil {
			est = estTotals[qi]
		}
		trackers[qi] = q.Contract.NewTracker(est)
	}

	out := make([]TimelinePoint, 0, samples)
	next := 0 // emissions[:next] have been observed
	for s := 1; s <= samples; s++ {
		cut := r.EndTime * float64(s) / float64(samples)
		for next < len(all) && all[next].Time <= cut {
			trackers[all[next].Query].Observe(all[next].Time)
			next++
		}
		sat := 0.0
		if len(trackers) > 0 {
			sum := 0.0
			for _, tr := range trackers {
				sum += contract.AvgSatisfaction(tr)
			}
			sat = sum / float64(len(trackers))
		}
		out = append(out, TimelinePoint{Time: cut, Delivered: next, Satisfaction: sat})
	}
	return out
}
