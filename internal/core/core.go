// Package core implements the CAQE framework itself (§4–§6): the pipeline
// that builds the shared min-max cuboid plan, performs the multi-query
// output look-ahead, and then interleaves the contract-driven optimizer
// (Algorithm 1) with the contract-aware executor, progressively emitting
// results and feeding run-time satisfaction back into the benefit model.
package core

import (
	"fmt"

	"caqe/internal/metrics"
	"caqe/internal/partition"
	"caqe/internal/region"
	"caqe/internal/run"
	"caqe/internal/skycube"
	"caqe/internal/trace"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// Options tunes the CAQE engine. The zero value selects sensible defaults.
type Options struct {
	// TargetCells is the desired number of leaf cells per input
	// relation (default 24). More cells mean finer-grained scheduling at
	// higher coarse-level cost.
	TargetCells int
	// GridResolution is the number of output-grid cells per dimension used
	// for ProgCount and emission decisions (default 64).
	GridResolution int

	// WallClock switches the engine from the deterministic virtual clock to
	// real (monotonic) time: contract deadlines become wall deadlines and
	// the Eq. 11 / CSM horizon is derived from the measured processing rate
	// (work units per real second) instead of counted operations. Virtual
	// mode (the default) is byte-identical to builds without this option.
	WallClock bool
	// WallNowNS optionally overrides the wall clock's monotonic nanosecond
	// source (tests inject a deterministic one). Ignored unless WallClock
	// is set.
	WallNowNS func() int64

	// DisableContractBenefit ranks regions purely by estimated output
	// count rather than contract utility: a count-driven scheduler in the
	// CAQE skeleton, the ProgXe+ comparison strategy (§7.1). With no
	// contract weights to read, the Eq. 11 feedback is off too.
	DisableContractBenefit bool
	// DataOrderScheduling processes regions blindly in construction order
	// instead of by CSM — the "pipeline the input through the shared plan"
	// behaviour of the S-JFSL comparison strategy (§7.1): no dependency
	// graph, no region discard and no feedback.
	DataOrderScheduling bool

	// Tracer, when set, receives the structured execution trace of the
	// run: one event per optimizer decision (chosen region, its CSM, the
	// runner-up and the frontier size), per region defer/discard, per
	// emission batch and per Eq. 11 feedback update, bracketed by start
	// and end events. Tracing performs no counted work — the schedule,
	// virtual timestamps and counters of a traced run are byte-identical
	// to an untraced one — and costs a single nil check when unset.
	Tracer trace.Tracer
}

// NewClock builds the clock the options select: a wall clock when WallClock
// is set (with WallNowNS as the time source when provided), otherwise the
// deterministic virtual clock.
func (o Options) NewClock() *metrics.Clock {
	if o.WallClock {
		return metrics.NewWallClockFunc(o.WallNowNS)
	}
	return metrics.NewClock()
}

func (o Options) withDefaults() Options {
	if o.TargetCells <= 0 {
		o.TargetCells = 24
	}
	if o.GridResolution <= 0 {
		o.GridResolution = 64
	}
	return o
}

// feedback reports whether the Eq. 11 satisfaction feedback runs: only
// where the contract-weighted CSM reads its weights.
func (o Options) feedback() bool {
	return !o.DataOrderScheduling && !o.DisableContractBenefit
}

// Engine executes one workload over one pair of base relations.
type Engine struct {
	w    *workload.Workload
	r, t *tuple.Relation
	opt  Options
}

// New validates the inputs — among them that every attribute of both
// relations is finite and every row's ID is its position, however the
// relations were built — and returns an engine.
func New(w *workload.Workload, r, t *tuple.Relation, opt Options) (*Engine, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if r == nil || t == nil {
		return nil, fmt.Errorf("core: nil input relation")
	}
	for _, rel := range []*tuple.Relation{r, t} {
		if rel.Schema.NumKeys() > 64 {
			return nil, fmt.Errorf("core: relation %s has %d key columns (at most 64)", rel.Schema.Name, rel.Schema.NumKeys())
		}
		for i := range rel.Tuples {
			if id := rel.Tuples[i].ID; id != i {
				return nil, fmt.Errorf("core: relation %s row %d has ID %d; IDs are row positions", rel.Schema.Name, i, id)
			}
			if err := tuple.CheckFinite(rel.Tuples[i].Attrs); err != nil {
				return nil, fmt.Errorf("core: relation %s row %d: %w", rel.Schema.Name, rel.Tuples[i].ID, err)
			}
		}
	}
	for _, jc := range w.JoinConds {
		if jc.LeftKey < 0 || jc.LeftKey >= r.Schema.NumKeys() {
			return nil, fmt.Errorf("core: join condition %s references key %d of relation %s (%d keys)",
				jc.Name, jc.LeftKey, r.Schema.Name, r.Schema.NumKeys())
		}
		if jc.RightKey < 0 || jc.RightKey >= t.Schema.NumKeys() {
			return nil, fmt.Errorf("core: join condition %s references key %d of relation %s (%d keys)",
				jc.Name, jc.RightKey, t.Schema.Name, t.Schema.NumKeys())
		}
	}
	for _, f := range w.OutDims {
		if f.LeftAttr >= r.Schema.NumAttrs() {
			return nil, fmt.Errorf("core: mapping %s references attribute %d of relation %s (%d attributes)",
				f.Name, f.LeftAttr, r.Schema.Name, r.Schema.NumAttrs())
		}
		if f.RightAttr >= t.Schema.NumAttrs() {
			return nil, fmt.Errorf("core: mapping %s references attribute %d of relation %s (%d attributes)",
				f.Name, f.RightAttr, t.Schema.Name, t.Schema.NumAttrs())
		}
	}
	return &Engine{w: w, r: r, t: t, opt: opt.withDefaults()}, nil
}

// Execute runs the full CAQE pipeline and returns the execution report.
// estTotals optionally supplies the final result cardinality N per query
// for cardinality-based contracts (nil if unknown).
func (e *Engine) Execute(estTotals []int) (*run.Report, error) {
	return e.ExecuteRun(estTotals, nil)
}

// ExecuteRun is the single execution path behind every public entry point:
// it wires a fresh clock and report (with the optional progressive OnEmit
// hook and the engine's tracer), runs the pipeline and finalizes the
// report. Entry points differing only in report wiring — Run,
// RunWithTotals, RunProgressive — all route here, so counter, emission and
// tracing semantics cannot drift between them.
func (e *Engine) ExecuteRun(estTotals []int, onEmit func(run.Emission)) (*run.Report, error) {
	clock := e.opt.NewClock()
	rep := run.NewReport("CAQE", e.w, estTotals)
	rep.OnEmit = onEmit
	rep.StartTrace(e.opt.Tracer)
	if err := e.ExecuteInto(clock, rep, nil); err != nil {
		return nil, err
	}
	rep.Finish(clock.Now()/metrics.VirtualSecond, clock.Counters())
	return rep, nil
}

// ExecuteInto runs the pipeline on a caller-provided clock and report,
// without finalizing the report. qremap, when non-nil, maps this engine's
// local query indices onto the report's query indices, allowing a
// comparison strategy to run several (sub-)workloads sequentially on one
// clock — the time-shared processing mode of the non-sharing baselines.
func (e *Engine) ExecuteInto(clock *metrics.Clock, rep *run.Report, qremap []int) error {
	if qremap != nil && len(qremap) != len(e.w.Queries) {
		return fmt.Errorf("core: qremap has %d entries for %d queries", len(qremap), len(e.w.Queries))
	}
	cuboid, space, filter, err := e.plan(clock, false)
	if err != nil {
		return err
	}
	shared := e.newShared(cuboid, space, clock)

	st := newState(e, clock, space, shared, rep, filter)
	if qremap != nil {
		st.qremap = qremap
	}
	st.run()
	return nil
}

// plan derives the shared plan every execution starts from: the join-group
// filter's verdict on both inputs, the survivors partitioned into leaf
// cells (each side sized by its survivor count), the output space built
// over the cell pairs and the min-max cuboid over the queries' preferences.
// The filter's comparisons and the space's cell-level work are charged to
// clock, which may be nil. keepPruned is region.Options'.
func (e *Engine) plan(clock *metrics.Clock, keepPruned bool) (*skycube.Cuboid, *region.Space, *joinFilter, error) {
	f := newJoinFilter(e.w, e.r, e.t, clock)
	var cells [2][]*partition.Cell
	for side, rel := range f.rels {
		opt := partition.DefaultOptions(f.survivors(side), e.opt.TargetCells)
		if f.sides[side].on {
			opt.Keep = f.keep[side]
		}
		var err error
		if cells[side], err = partition.Partition(rel, opt); err != nil {
			return nil, nil, nil, fmt.Errorf("core: partitioning %s: %w", rel.Schema.Name, err)
		}
	}
	space, err := region.BuildSpace(e.w, cells[0], cells[1],
		region.Options{GridResolution: e.opt.GridResolution, KeepPruned: keepPruned}, clock)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: building output space: %w", err)
	}
	cuboid, err := skycube.BuildCuboid(e.w.Prefs())
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: building min-max cuboid: %w", err)
	}
	return cuboid, space, f, nil
}

// newShared creates the multi-query skyline state over the plan's cuboid,
// its window keys quantised over the box the output grid spans.
func (e *Engine) newShared(cuboid *skycube.Cuboid, space *region.Space, clock *metrics.Clock) *skycube.SharedSkyline {
	hi := make([]float64, len(space.GridLo))
	for k, lo := range space.GridLo {
		hi[k] = lo + float64(space.GridStep[k]*float64(e.opt.GridResolution))
	}
	return skycube.NewSharedSkylineIn(cuboid, clock, space.GridLo, hi)
}
