// Package topk extends the CAQE framework to a second class of
// multi-criteria decision support queries: contract-driven *top-k over
// join*. The paper develops CAQE for skyline-over-join workloads but
// positions the principles as general across MCDS query classes (§1.2,
// §2 — top-k queries are the first class it lists); this package realizes
// that extension on the same substrates: partitioned input cells with join
// signatures, output regions with per-query lineage, a benefit-driven
// region scheduler, and progressive emission of provably-final results.
//
// A top-k query scores each join result with a non-negative linear
// combination of the output dimensions (smaller is better) and asks for
// the k best results. Region pruning is even sharper than for skylines: a
// region whose best corner cannot beat the query's current k-th best score
// can be discarded outright, and a collected result is provably final as
// soon as no live region's best corner scores better.
package topk

import (
	"fmt"
	"sort"

	"caqe/internal/contract"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/partition"
	"caqe/internal/run"
	"caqe/internal/trace"
	"caqe/internal/tuple"
)

// Query is one top-k-over-join query.
type Query struct {
	Name     string
	JC       int       // index into Workload.JoinConds
	Weights  []float64 // non-negative weights over Workload.OutDims; smaller score preferred
	K        int
	Priority float64
	Contract contract.Contract
}

// Workload is a set of top-k queries over a shared output space.
type Workload struct {
	JoinConds []join.EquiJoin
	OutDims   []join.MapFunc
	Queries   []Query
}

// Validate checks structural consistency.
func (w *Workload) Validate() error {
	if len(w.Queries) == 0 {
		return fmt.Errorf("topk: no queries")
	}
	if len(w.JoinConds) == 0 {
		return fmt.Errorf("topk: no join conditions")
	}
	for _, f := range w.OutDims {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	for _, q := range w.Queries {
		if q.JC < 0 || q.JC >= len(w.JoinConds) {
			return fmt.Errorf("topk: query %s references join condition %d", q.Name, q.JC)
		}
		if len(q.Weights) != len(w.OutDims) {
			return fmt.Errorf("topk: query %s has %d weights for %d output dimensions",
				q.Name, len(q.Weights), len(w.OutDims))
		}
		nonzero := false
		for _, wgt := range q.Weights {
			if wgt < 0 {
				return fmt.Errorf("topk: query %s has a negative weight", q.Name)
			}
			if wgt > 0 {
				nonzero = true
			}
		}
		if !nonzero {
			return fmt.Errorf("topk: query %s has an all-zero scoring function", q.Name)
		}
		if q.K <= 0 {
			return fmt.Errorf("topk: query %s has k = %d", q.Name, q.K)
		}
		if q.Contract == nil {
			return fmt.Errorf("topk: query %s has no contract", q.Name)
		}
	}
	return nil
}

// Score evaluates a query's scoring function on an output point.
func (q *Query) Score(out []float64) float64 {
	s := 0.0
	for k, w := range q.Weights {
		s += w * out[k]
	}
	return s
}

// Options tunes the engine.
type Options struct {
	TargetCells    int
	GridResolution int // reserved; top-k needs no output grid
	// DataOrder disables benefit-driven scheduling (ablation / shared
	// blind pipeline).
	DataOrder bool
	// Tracer receives the structured execution trace (decisions, emission
	// batches, start/end). As in the skyline engine, tracing performs no
	// counted work: traced reports are byte-identical to untraced ones.
	Tracer trace.Tracer
}

func (o Options) withDefaults() Options {
	if o.TargetCells <= 0 {
		o.TargetCells = 24
	}
	return o
}

// tkRegion is one joinable cell pair with per-query score lower bounds.
type tkRegion struct {
	rc, tc  *partition.Cell
	jcs     []int     // join conditions with signature overlap
	lb      []float64 // per query: minimal achievable score (best corner)
	alive   []bool    // per query: can still contribute
	done    bool
	queries int // live query count
}

// result is one candidate with its score for one query.
type result struct {
	score    float64
	rid, tid int
	out      []float64
}

// Run executes the workload with contract-driven scheduling and returns
// the report (emissions carry the scored output point).
func Run(w *Workload, r, t *tuple.Relation, opt Options, estTotals []int) (*run.Report, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	clock := metrics.NewClock()
	rep := newReport("CAQE-TopK", w, estTotals)
	rep.StartTrace(opt.Tracer)

	rcells, err := partition.Partition(r, partition.DefaultOptions(r.Len(), opt.TargetCells))
	if err != nil {
		return nil, err
	}
	tcells, err := partition.Partition(t, partition.DefaultOptions(t.Len(), opt.TargetCells))
	if err != nil {
		return nil, err
	}

	e := &engine{
		w: w, opt: opt, clock: clock, rep: rep,
		kth:     make([]float64, len(w.Queries)),
		top:     make([][]result, len(w.Queries)),
		emitted: make([]int, len(w.Queries)),
	}
	for qi := range e.kth {
		e.kth[qi] = inf
	}
	e.buildRegions(rcells, tcells)
	e.run()

	rep.Finish(clock.Now()/metrics.VirtualSecond, clock.Counters())
	return rep, nil
}

const inf = 1e308

type engine struct {
	w     *Workload
	opt   Options
	clock *metrics.Clock
	rep   *run.Report

	regions []*tkRegion
	kth     []float64  // current k-th best score per query (inf until k results)
	top     [][]result // per query: up to K best candidates, sorted ascending by (score, rid, tid)
	emitted []int      // per query: results already delivered
	js      join.Scratch
}

// buildRegions performs the coarse join: a cell pair becomes a region for
// every join condition whose signatures intersect, with per-query score
// lower bounds from the mapping-function interval bounds.
func (e *engine) buildRegions(rcells, tcells []*partition.Cell) {
	nq := len(e.w.Queries)
	for _, rc := range rcells {
		for _, tc := range tcells {
			var jcs []int
			for j, jc := range e.w.JoinConds {
				e.clock.CountCellOp(1)
				if rc.Sigs[jc.LeftKey].Intersects(tc.Sigs[jc.RightKey], e.clock) {
					jcs = append(jcs, j)
				}
			}
			if len(jcs) == 0 {
				e.clock.CountRegionPruned()
				continue
			}
			reg := &tkRegion{rc: rc, tc: tc, jcs: jcs,
				lb: make([]float64, nq), alive: make([]bool, nq)}
			lo := make([]float64, len(e.w.OutDims))
			for k, f := range e.w.OutDims {
				lo[k], _ = f.Bounds(rc.Lo, rc.Hi, tc.Lo, tc.Hi)
			}
			for qi := range e.w.Queries {
				q := &e.w.Queries[qi]
				served := false
				for _, j := range jcs {
					if j == q.JC {
						served = true
					}
				}
				if !served {
					reg.lb[qi] = inf
					continue
				}
				reg.lb[qi] = q.Score(lo)
				reg.alive[qi] = true
				reg.queries++
			}
			if reg.queries == 0 {
				e.clock.CountRegionPruned()
				continue
			}
			e.regions = append(e.regions, reg)
		}
	}
}

// run iterates: pick the most beneficial region, join it, fold its results
// into the per-query top-k states, prune regions that can no longer beat
// any query's k-th score, and emit every result that is provably final.
func (e *engine) run() {
	for {
		ri, score, ru, ruScore := e.pickNext()
		if ri < 0 {
			break
		}
		e.traceDecision(ri, score, ru, ruScore)
		reg := e.regions[ri]
		reg.done = true
		e.processRegion(reg)
		e.clock.CountRegionDone()
		e.pruneRegions()
		e.emitFinal()
	}
	e.flush()
}

// pickNext returns the live region with the highest benefit (or the first
// live region in pipeline order under DataOrder) together with that
// benefit and the runner-up; best is -1 when none remain.
func (e *engine) pickNext() (best int, bestScore float64, runnerUp int, ruScore float64) {
	best, bestScore, runnerUp, ruScore = -1, -1.0, -1, -1.0
	for ri, reg := range e.regions {
		if reg.done || reg.queries == 0 {
			continue
		}
		if e.opt.DataOrder {
			return ri, 0, -1, 0
		}
		s := e.benefit(reg)
		switch {
		case s > bestScore:
			runnerUp, ruScore = best, bestScore
			best, bestScore = ri, s
		case s > ruScore:
			runnerUp, ruScore = ri, s
		}
	}
	return best, bestScore, runnerUp, ruScore
}

// traceDecision records one scheduling pick with the benefit scores the
// scheduler acted on. It performs no counted work: the frontier and the
// served queries come from plain scans, and everything is skipped when
// tracing is off.
func (e *engine) traceDecision(ri int, score float64, ru int, ruScore float64) {
	tr := e.rep.Tracer()
	if tr == nil {
		return
	}
	e.rep.FlushTrace()
	ev := trace.New(trace.KindDecision)
	ev.Strategy = e.rep.Strategy
	ev.T = e.clock.Now() / metrics.VirtualSecond
	ev.Region = ri
	ev.CSM = score
	if ru >= 0 {
		ev.RunnerUp, ev.RunnerUpCSM = ru, ruScore
	}
	for _, reg := range e.regions {
		if !reg.done && reg.queries > 0 {
			ev.Frontier++
		}
	}
	for qi, alive := range e.regions[ri].alive {
		if alive {
			ev.Queries = append(ev.Queries, qi)
		}
	}
	tr.Trace(ev)
}

// benefit estimates the contract-weighted improvement potential of a
// region: for each query it can still serve, how far its best corner
// undercuts the current k-th score, valued at the contract's prospective
// utility.
func (e *engine) benefit(reg *tkRegion) float64 {
	e.clock.CountCellOp(1)
	at := e.clock.Now() / metrics.VirtualSecond
	total := 0.0
	for qi := range e.w.Queries {
		if !reg.alive[qi] {
			continue
		}
		q := &e.w.Queries[qi]
		head := 1.0
		if e.kth[qi] < inf && e.kth[qi] > 0 {
			head = (e.kth[qi] - reg.lb[qi]) / e.kth[qi]
			if head < 0 {
				head = 0
			}
		}
		u := contract.ExpectedUtilityAt(q.Contract, at)
		total += (1 + q.Priority) * head * u * float64(q.K-e.emitted[qi])
	}
	return total
}

// processRegion joins the region's cells under each relevant condition and
// folds results into the top-k states of the queries it serves.
func (e *engine) processRegion(reg *tkRegion) {
	for _, j := range reg.jcs {
		// Only join when some live query uses this condition.
		used := false
		for qi := range e.w.Queries {
			if reg.alive[qi] && e.w.Queries[qi].JC == j {
				used = true
			}
		}
		if !used {
			continue
		}
		// Scratch results are valid only until the next join; offer copies
		// the coordinates of the candidates it actually keeps.
		results := e.js.NestedLoop(e.w.JoinConds[j], e.w.OutDims, reg.rc.Tuples, reg.tc.Tuples, e.clock)
		for _, res := range results {
			for qi := range e.w.Queries {
				if !reg.alive[qi] || e.w.Queries[qi].JC != j {
					continue
				}
				e.offer(qi, result{
					score: e.w.Queries[qi].Score(res.Out),
					rid:   res.RID, tid: res.TID, out: res.Out,
				})
			}
		}
	}
}

// offer inserts a candidate into a query's top-k buffer, maintaining the
// ascending (score, rid, tid) order and the size bound K (counting results
// already emitted).
func (e *engine) offer(qi int, cand result) {
	q := &e.w.Queries[qi]
	capacity := q.K - e.emitted[qi]
	if capacity <= 0 {
		return
	}
	buf := e.top[qi]
	e.clock.CountSkylineCmp(1) // one ordering comparison charged per offer
	pos := sort.Search(len(buf), func(i int) bool { return lessResult(cand, buf[i]) })
	if pos >= capacity {
		return // not better than the k-th candidate
	}
	// The candidate survives into the buffer (and may be emitted much
	// later), so detach its coordinates from the caller's scratch backing.
	cand.out = append([]float64(nil), cand.out...)
	buf = append(buf, result{})
	copy(buf[pos+1:], buf[pos:])
	buf[pos] = cand
	if len(buf) > capacity {
		buf = buf[:capacity]
	}
	e.top[qi] = buf
	if len(buf) == capacity {
		e.kth[qi] = buf[len(buf)-1].score
	}
}

func lessResult(a, b result) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	if a.rid != b.rid {
		return a.rid < b.rid
	}
	return a.tid < b.tid
}

// pruneRegions discards regions for queries whose current k-th score their
// best corner cannot beat; regions serving no query die entirely.
func (e *engine) pruneRegions() {
	for _, reg := range e.regions {
		if reg.done || reg.queries == 0 {
			continue
		}
		for qi := range e.w.Queries {
			if !reg.alive[qi] {
				continue
			}
			e.clock.CountCellOp(1)
			if reg.lb[qi] >= e.kth[qi] && e.kth[qi] < inf {
				reg.alive[qi] = false
				reg.queries--
			}
		}
		if reg.queries == 0 {
			reg.done = true
			e.clock.CountRegionPruned()
		}
	}
}

// emitFinal delivers, per query in score order, every candidate whose score
// no live region can beat — it is provably in the final top-k.
func (e *engine) emitFinal() {
	for qi := range e.w.Queries {
		minLB := inf
		for _, reg := range e.regions {
			if !reg.done && reg.alive[qi] {
				e.clock.CountCellOp(1)
				if reg.lb[qi] < minLB {
					minLB = reg.lb[qi]
				}
			}
		}
		buf := e.top[qi]
		n := 0
		for n < len(buf) && buf[n].score < minLB && e.emitted[qi] < e.w.Queries[qi].K {
			e.emit(qi, buf[n])
			n++
		}
		e.top[qi] = append(buf[:0], buf[n:]...)
	}
}

// flush delivers every remaining buffered candidate (no live regions
// remain, so the buffers are exact).
func (e *engine) flush() {
	for qi := range e.w.Queries {
		for _, cand := range e.top[qi] {
			if e.emitted[qi] >= e.w.Queries[qi].K {
				break
			}
			e.emit(qi, cand)
		}
		e.top[qi] = nil
	}
}

func (e *engine) emit(qi int, cand result) {
	e.emitted[qi]++
	e.clock.CountEmit(1)
	e.rep.Emit(run.Emission{
		Query: qi, RID: cand.rid, TID: cand.tid, Out: cand.out,
		Time: e.clock.Now() / metrics.VirtualSecond,
	})
}

// newReport builds a run.Report with one tracker per top-k query.
func newReport(strategy string, w *Workload, estTotals []int) *run.Report {
	rep := &run.Report{
		Strategy: strategy,
		PerQuery: make([][]run.Emission, len(w.Queries)),
		Trackers: make([]contract.Tracker, len(w.Queries)),
	}
	for i, q := range w.Queries {
		est := q.K
		if estTotals != nil {
			est = estTotals[i]
		}
		rep.Trackers[i] = q.Contract.NewTracker(est)
	}
	return rep
}

// Sequential evaluates the workload query by query in descending priority
// order with a full join and a sort — the unshared, blocking baseline for
// the top-k extension.
func Sequential(w *Workload, r, t *tuple.Relation, estTotals []int) (*run.Report, error) {
	return SequentialTraced(w, r, t, estTotals, nil)
}

// SequentialTraced is Sequential with a trace sink attached: one decision
// event per query granted processing time, plus the shared emission
// batches and start/end brackets.
func SequentialTraced(w *Workload, r, t *tuple.Relation, estTotals []int, tracer trace.Tracer) (*run.Report, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	clock := metrics.NewClock()
	rep := newReport("Sequential-TopK", w, estTotals)
	rep.StartTrace(tracer)

	order := make([]int, len(w.Queries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return w.Queries[order[a]].Priority > w.Queries[order[b]].Priority
	})

	rs := make([]*tuple.Tuple, r.Len())
	for i := range rs {
		rs[i] = r.At(i)
	}
	ts := make([]*tuple.Tuple, t.Len())
	for i := range ts {
		ts[i] = t.At(i)
	}
	var js join.Scratch
	var cands []result
	for _, qi := range order {
		q := &w.Queries[qi]
		if tracer != nil {
			rep.FlushTrace()
			ev := trace.New(trace.KindDecision)
			ev.Strategy = rep.Strategy
			ev.T = clock.Now() / metrics.VirtualSecond
			ev.Query = qi
			ev.Queries = []int{qi}
			tracer.Trace(ev)
		}
		results := js.NestedLoop(w.JoinConds[q.JC], w.OutDims, rs, ts, clock)
		cands = cands[:0]
		for _, res := range results {
			cands = append(cands, result{score: q.Score(res.Out), rid: res.RID, tid: res.TID, out: res.Out})
		}
		clock.CountSkylineCmp(int64(len(cands))) // ordering cost, one charge per element
		sort.SliceStable(cands, func(a, b int) bool { return lessResult(cands[a], cands[b]) })
		if len(cands) > q.K {
			cands = cands[:q.K]
		}
		now := clock.Now() / metrics.VirtualSecond
		for _, cand := range cands {
			clock.CountEmit(1)
			// Emissions outlive the scratch buffers: copy the coordinates.
			out := append([]float64(nil), cand.out...)
			rep.Emit(run.Emission{Query: qi, RID: cand.rid, TID: cand.tid, Out: out, Time: now})
		}
	}
	rep.Finish(clock.Now()/metrics.VirtualSecond, clock.Counters())
	return rep, nil
}
