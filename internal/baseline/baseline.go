// Package baseline implements the comparison strategies of §7.1 — JFSL,
// SSMJ, ProgXe+ and the shared S-JFSL — and §1.3's TimeShared, plus the
// ground-truth evaluator used to verify that every strategy produces
// identical final result sets. It is the one place that knows which
// strategies exist (All, Names, Find), what engine configuration each runs
// (Strategy.Engine) and how a strategy run is wired (newStrategy).
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
	// engine is the core engine configuration Run executes; nil for the
	// strategies that build no engine (JFSL, SSMJ, TimeShared).
	engine *core.Options
}

// Engine returns a copy of the core engine configuration the strategy runs,
// and false for the strategies that run no engine.
func (s Strategy) Engine() (core.Options, bool) {
	if s.engine == nil {
		return core.Options{}, false
	}
	return *s.engine, true
}

// body is one strategy's execution over a validated workload, on the
// strategy's own virtual clock and report, which newStrategy opens and
// finishes.
type body func(w *workload.Workload, r, t *tuple.Relation, clock *metrics.Clock, rep *run.Report) error

// newStrategy wires a strategy body the way every strategy runs: validate
// the workload, open a fresh virtual clock and a report named for the
// strategy (with opt's emission hook and tracer), run the body, finish the
// report. engine, when non-nil, is the engine configuration the body runs.
func newStrategy(name string, opt Options, engine *core.Options, b body) Strategy {
	return Strategy{Name: name, engine: engine, Run: func(w *workload.Workload, r, t *tuple.Relation, estTotals []int) (*run.Report, error) {
		if err := w.Validate(); err != nil {
			return nil, err
		}
		clock := metrics.NewClock()
		rep := run.NewReport(name, w, estTotals)
		rep.OnEmit = opt.OnEmit
		rep.StartTrace(opt.Tracer)
		if err := b(w, r, t, clock, rep); err != nil {
			return nil, err
		}
		rep.Finish(clock.Now()/metrics.VirtualSecond, clock.Counters())
		return rep, nil
	}}
}

// table is the one list of strategies: the paper's five in its order
// (CAQE, S-JFSL, JFSL, ProgXe+, SSMJ), then §1.3's TimeShared. It also
// defines, once, the engine configuration of each strategy that runs the
// core engine.
func table(opt Options) []Strategy {
	engine := func(o core.Options) *core.Options {
		o.TargetCells, o.GridResolution, o.Tracer = opt.TargetCells, opt.GridResolution, opt.Tracer
		return &o
	}
	caqe := engine(core.Options{})
	// S-JFSL: the shared plan driven blindly in data order, with no
	// dependency-graph lookahead, no region discarding and no feedback.
	sjfsl := engine(core.Options{DataOrderScheduling: true})
	// ProgXe+: count-driven region ordering, no feedback.
	progxe := engine(core.Options{DisableContractBenefit: true})
	return []Strategy{
		newStrategy("CAQE", opt, caqe, wholeWorkload(caqe)),
		newStrategy("S-JFSL", opt, sjfsl, wholeWorkload(sjfsl)),
		newStrategy("JFSL", opt, nil, jfsl),
		newStrategy("ProgXe+", opt, progxe, progXe(progxe)),
		newStrategy("SSMJ", opt, nil, ssmj),
		newStrategy("TimeShared", opt, nil, timeShared),
	}
}

// All returns the five compared techniques in the paper's order:
// CAQE, S-JFSL, JFSL, ProgXe+, SSMJ.
func All(opt Options) []Strategy { return table(opt)[:5] }

// Names lists every strategy Find knows: the paper's five, then TimeShared.
func Names() []string {
	all := table(Options{})
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// Find returns the named strategy wired to opt. Its error names the known
// strategies and carries no package prefix; callers add their own.
func Find(name string, opt Options) (Strategy, error) {
	for _, s := range table(opt) {
		if s.Name == name {
			return s, nil
		}
	}
	return Strategy{}, fmt.Errorf("unknown strategy %q (have %v)", name, Names())
}

// wholeWorkload is the body of CAQE and S-JFSL: one engine, configured by
// cfg, over the whole workload.
func wholeWorkload(cfg *core.Options) body {
	return func(w *workload.Workload, r, t *tuple.Relation, clock *metrics.Clock, rep *run.Report) error {
		eng, err := core.New(w, r, t, *cfg)
		if err != nil {
			return err
		}
		return eng.ExecuteInto(clock, rep, nil)
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
// full join followed by an SFS skyline, without cost accounting. It joins
// every row, unfiltered: it is the oracle the join-group filter is checked
// against (DESIGN.md §4). It returns
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

// jfsl implements the "Join First, Skyline Later" baseline: each query is
// processed independently in priority order with a full nested-loop join
// (of the rows the join-group filter keeps, core.Survivors, like every
// strategy) followed by a block-nested-loops skyline. The skyline operator is
// blocking, so every result of a query is delivered only when the query
// finishes — the worst case for progressiveness and, with no sharing, for
// work (§7.3 reports it needs up to 66× more comparisons than CAQE).
func jfsl(w *workload.Workload, r, t *tuple.Relation, clock *metrics.Clock, rep *run.Report) error {
	rs, ts := core.Survivors(w, r, t, clock)
	for _, qi := range w.ByPriority() {
		q := w.Queries[qi]
		jc := w.JoinConds[q.JC]
		traceQueryDecision(rep, clock, qi)
		// A scratch per query: the emissions below keep its output points.
		var js join.Scratch
		results := js.NestedLoop(jc, w.OutDims, rs[jc.LeftKey], ts[jc.RightKey], clock)
		sky := skyline.BNL(q.Pref, toPoints(results), clock)
		now := clock.Now() / metrics.VirtualSecond
		for _, p := range sky {
			clock.CountEmit(1)
			jr := results[p.Payload]
			rep.Emit(run.Emission{Query: qi, RID: jr.RID, TID: jr.TID, Out: jr.Out, Time: now})
		}
	}
	return nil
}

// progXe is the body of the ProgXe+ baseline [27]: progressive,
// region-based result generation for a *single* query at a time. Each
// workload query is executed in priority order by its own engine,
// configured by cfg — count-driven (not contract-driven) region ordering;
// there is no sharing across queries.
func progXe(cfg *core.Options) body {
	return func(w *workload.Workload, r, t *tuple.Relation, clock *metrics.Clock, rep *run.Report) error {
		for _, qi := range w.ByPriority() {
			traceQueryDecision(rep, clock, qi)
			eng, err := core.New(singleQuery(w, qi), r, t, *cfg)
			if err != nil {
				return err
			}
			if err := eng.ExecuteInto(clock, rep, []int{qi}); err != nil {
				return fmt.Errorf("baseline: ProgXe+ on %s: %w", w.Queries[qi].Name, err)
			}
		}
		return nil
	}
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
