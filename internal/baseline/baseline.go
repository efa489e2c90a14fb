// Package baseline implements the comparison strategies of §7.1 — JFSL,
// SSMJ, ProgXe+ and the shared S-JFSL — plus the ground-truth evaluator
// used to verify that every strategy produces identical final result sets.
//
// All strategies share the same substrates and instrumentation as CAQE, so
// the paper's metrics (join results, skyline comparisons, execution time,
// satisfaction) are directly comparable across techniques. The non-sharing
// baselines (JFSL, SSMJ, ProgXe+) process the workload queries sequentially
// in descending priority order on one virtual clock, as the paper
// describes.
package baseline

import (
	"fmt"

	"caqe/internal/core"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/run"
	"caqe/internal/skyline"
	"caqe/internal/trace"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// Options tunes the strategies that use the partitioned/region machinery so
// they match the CAQE engine's granularity.
type Options struct {
	TargetCells    int
	GridResolution int

	// OnEmit is forwarded to every strategy's report: it fires synchronously
	// for each result the moment the strategy delivers it.
	OnEmit func(run.Emission)
	// Tracer receives the structured execution trace of every strategy run:
	// scheduling decisions, emission batches and (for CAQE) feedback
	// updates, bracketed by start/end events. Like the core engine's
	// tracer, it performs no counted work — reports are byte-identical with
	// tracing on or off.
	Tracer trace.Tracer
}

// Strategy is one runnable execution technique.
type Strategy struct {
	Name string
	Run  func(w *workload.Workload, r, t *tuple.Relation, estTotals []int) (*run.Report, error)
}

// All returns the five compared techniques in the paper's order:
// CAQE, S-JFSL, JFSL, ProgXe+, SSMJ.
func All(opt Options) []Strategy {
	return []Strategy{
		{Name: "CAQE", Run: func(w *workload.Workload, r, t *tuple.Relation, est []int) (*run.Report, error) {
			eng, err := core.New(w, r, t, core.Options{
				TargetCells: opt.TargetCells, GridResolution: opt.GridResolution,
				Tracer: opt.Tracer,
			})
			if err != nil {
				return nil, err
			}
			return eng.ExecuteRun(est, opt.OnEmit)
		}},
		{Name: "S-JFSL", Run: func(w *workload.Workload, r, t *tuple.Relation, est []int) (*run.Report, error) {
			return SJFSL(w, r, t, est, opt)
		}},
		{Name: "JFSL", Run: func(w *workload.Workload, r, t *tuple.Relation, est []int) (*run.Report, error) {
			return jfsl(w, r, t, est, opt)
		}},
		{Name: "ProgXe+", Run: func(w *workload.Workload, r, t *tuple.Relation, est []int) (*run.Report, error) {
			return ProgXe(w, r, t, est, opt)
		}},
		{Name: "SSMJ", Run: func(w *workload.Workload, r, t *tuple.Relation, est []int) (*run.Report, error) {
			return ssmj(w, r, t, est, opt)
		}},
	}
}

// traceQueryDecision records a non-sharing baseline's scheduling decision:
// the next whole query granted processing time. Region is -1 (these
// strategies do not schedule regions).
func traceQueryDecision(rep *run.Report, clock *metrics.Clock, qi int) {
	tr := rep.Tracer()
	if tr == nil {
		return
	}
	rep.FlushTrace()
	ev := trace.New(trace.KindDecision)
	ev.Strategy = rep.Strategy
	ev.T = clock.Now() / metrics.VirtualSecond
	ev.Query = qi
	ev.Queries = []int{qi}
	tr.Trace(ev)
}

// tuplesOf returns the tuple pointers of a relation.
func tuplesOf(rel *tuple.Relation) []*tuple.Tuple {
	out := make([]*tuple.Tuple, rel.Len())
	for i := range out {
		out[i] = rel.At(i)
	}
	return out
}

// toPoints converts join results to skyline points; the payload indexes the
// result slice.
func toPoints(results []join.Result) []skyline.Point {
	pts := make([]skyline.Point, len(results))
	for i, r := range results {
		pts[i] = skyline.Point{Vals: r.Out, Payload: i}
	}
	return pts
}

// GroundTruth computes the exact final result set of every query with a
// full join followed by an SFS skyline, without cost accounting. It returns
// the per-query skyline results and their cardinalities (the N of Table 2's
// cardinality contracts).
func GroundTruth(w *workload.Workload, r, t *tuple.Relation) ([][]join.Result, []int, error) {
	if err := w.Validate(); err != nil {
		return nil, nil, err
	}
	rs, ts := tuplesOf(r), tuplesOf(t)
	// Share the join across queries with the same join condition: the
	// oracle only cares about correctness, not costs.
	joined := make(map[int][]join.Result)
	for _, q := range w.Queries {
		if _, ok := joined[q.JC]; !ok {
			joined[q.JC] = join.HashJoin(w.JoinConds[q.JC], w.OutDims, rs, ts, nil)
		}
	}
	results := make([][]join.Result, len(w.Queries))
	totals := make([]int, len(w.Queries))
	for qi, q := range w.Queries {
		jr := joined[q.JC]
		sky := skyline.SFS(q.Pref, toPoints(jr), nil)
		out := make([]join.Result, len(sky))
		for i, p := range sky {
			out[i] = jr[p.Payload]
		}
		results[qi] = out
		totals[qi] = len(out)
	}
	return results, totals, nil
}

// GroundTruthReport wraps GroundTruth results in a Report (all results
// emitted at time zero) so strategy reports can be verified against it with
// run.SameResults.
func GroundTruthReport(w *workload.Workload, r, t *tuple.Relation) (*run.Report, []int, error) {
	results, totals, err := GroundTruth(w, r, t)
	if err != nil {
		return nil, nil, err
	}
	rep := run.NewReport("oracle", w, totals)
	for qi, rs := range results {
		for _, jr := range rs {
			rep.Emit(run.Emission{Query: qi, RID: jr.RID, TID: jr.TID, Out: jr.Out, Time: 0})
		}
	}
	rep.Finish(0, metrics.Counters{})
	return rep, totals, nil
}

// JFSL implements the "Join First, Skyline Later" baseline: each query is
// processed independently in priority order with a full nested-loop join
// followed by a block-nested-loops skyline. The skyline operator is
// blocking, so every result of a query is delivered only when the query
// finishes — the worst case for progressiveness and, with no sharing, for
// work (§7.3 reports it needs up to 66× more comparisons than CAQE).
func JFSL(w *workload.Workload, r, t *tuple.Relation, estTotals []int) (*run.Report, error) {
	return jfsl(w, r, t, estTotals, Options{})
}

// jfsl runs JFSL reporting to opt's emission callback and tracer.
func jfsl(w *workload.Workload, r, t *tuple.Relation, estTotals []int, opt Options) (*run.Report, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	clock := metrics.NewClock()
	rep := run.NewReport("JFSL", w, estTotals)
	rep.OnEmit = opt.OnEmit
	rep.StartTrace(opt.Tracer)
	rs, ts := tuplesOf(r), tuplesOf(t)
	for _, qi := range w.ByPriority() {
		q := w.Queries[qi]
		traceQueryDecision(rep, clock, qi)
		// A scratch per query: the emissions below keep its output points.
		var js join.Scratch
		results := js.NestedLoop(w.JoinConds[q.JC], w.OutDims, rs, ts, clock)
		sky := skyline.BNL(q.Pref, toPoints(results), clock)
		now := clock.Now() / metrics.VirtualSecond
		for _, p := range sky {
			clock.CountEmit(1)
			jr := results[p.Payload]
			rep.Emit(run.Emission{Query: qi, RID: jr.RID, TID: jr.TID, Out: jr.Out, Time: now})
		}
	}
	rep.Finish(clock.Now()/metrics.VirtualSecond, clock.Counters())
	return rep, nil
}

// SJFSL is the shared-plan comparison strategy the paper constructs (§7.1):
// it pipelines the join tuples over the min-max cuboid plan — sharing scans,
// joins and skyline comparisons exactly like CAQE — but processes the input
// chunks blindly in data order, with no contract-driven ordering, no
// dependency-graph lookahead, no region discarding and no feedback.
func SJFSL(w *workload.Workload, r, t *tuple.Relation, estTotals []int, opt Options) (*run.Report, error) {
	eng, err := core.New(w, r, t, core.Options{
		TargetCells:            opt.TargetCells,
		GridResolution:         opt.GridResolution,
		Tracer:                 opt.Tracer,
		DataOrderScheduling:    true,
		DisableRegionDiscard:   true,
		DisableFeedback:        true,
		DisableDependencyGraph: true,
	})
	if err != nil {
		return nil, err
	}
	clock := metrics.NewClock()
	rep := run.NewReport("S-JFSL", w, estTotals)
	rep.OnEmit = opt.OnEmit
	rep.StartTrace(opt.Tracer)
	if err := eng.ExecuteInto(clock, rep, nil); err != nil {
		return nil, err
	}
	rep.Finish(clock.Now()/metrics.VirtualSecond, clock.Counters())
	return rep, nil
}

// ProgXe implements the ProgXe+ baseline [27]: progressive, region-based
// result generation for a *single* query at a time. Each workload query is
// executed in priority order through the region machinery with count-driven
// (not contract-driven) region ordering; there is no sharing across
// queries.
func ProgXe(w *workload.Workload, r, t *tuple.Relation, estTotals []int, opt Options) (*run.Report, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	clock := metrics.NewClock()
	rep := run.NewReport("ProgXe+", w, estTotals)
	rep.OnEmit = opt.OnEmit
	rep.StartTrace(opt.Tracer)
	for _, qi := range w.ByPriority() {
		sub := singleQuery(w, qi)
		traceQueryDecision(rep, clock, qi)
		eng, err := core.New(sub, r, t, core.Options{
			TargetCells:            opt.TargetCells,
			GridResolution:         opt.GridResolution,
			Tracer:                 opt.Tracer,
			DisableContractBenefit: true,
			DisableFeedback:        true,
		})
		if err != nil {
			return nil, err
		}
		if err := eng.ExecuteInto(clock, rep, []int{qi}); err != nil {
			return nil, fmt.Errorf("baseline: ProgXe+ on %s: %w", w.Queries[qi].Name, err)
		}
	}
	rep.Finish(clock.Now()/metrics.VirtualSecond, clock.Counters())
	return rep, nil
}

// singleQuery extracts a one-query workload preserving the output space and
// join conditions.
func singleQuery(w *workload.Workload, qi int) *workload.Workload {
	return &workload.Workload{
		JoinConds: w.JoinConds,
		OutDims:   w.OutDims,
		Queries:   []workload.Query{w.Queries[qi]},
	}
}
