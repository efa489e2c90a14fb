// Package caqe is a Go implementation of CAQE — the Contract-Aware Query
// Execution framework of Raghavan and Rundensteiner (EDBT 2014) — for
// processing workloads of concurrent skyline-over-join decision support
// queries, each carrying a progressiveness contract.
//
// A workload is a set of queries over two shared base relations R and T.
// Each query joins R and T under an equi-join condition, projects the
// joined pair onto a shared output space through scalar mapping functions,
// and asks for the skyline (the Pareto-optimal set, smaller-is-better) over
// a subset of those output dimensions. Its contract is a utility function
// scoring each result by how usefully early it was delivered.
//
// CAQE executes the whole workload on one shared plan: a min-max cuboid
// over the subspace lattice shares skyline comparisons across queries,
// input is partitioned into cells whose pairwise join images form output
// regions, and a contract-driven optimizer picks the next region to process
// so the workload's cumulative contract satisfaction is maximized, with
// results streamed to each query the moment they are provably final.
//
// # Quick start
//
//	hotels := caqe.NewRelation(caqe.Schema{
//	    Name:      "Hotels",
//	    AttrNames: []string{"price", "distance"},
//	    KeyNames:  []string{"city"},
//	})
//	// ... Append rows to hotels and tours ...
//
//	w := &caqe.Workload{
//	    JoinConds: []caqe.EquiJoin{{Name: "same-city", LeftKey: 0, RightKey: 0}},
//	    OutDims: []caqe.MapFunc{
//	        caqe.SumDim("total-price", 0),
//	        caqe.SumDim("total-distance", 1),
//	    },
//	    Queries: []caqe.Query{{
//	        Name:     "bargains",
//	        Pref:     caqe.Dims(0, 1),
//	        Priority: 0.9,
//	        Contract: caqe.Deadline(30),
//	    }},
//	}
//
//	report, err := caqe.Run(w, hotels, tours, caqe.Options{})
//
// The report carries every delivered result with its virtual timestamp, the
// per-query contract satisfaction, and the operation counters (join
// results, skyline comparisons) that the paper uses as memory/CPU proxies.
//
// Time inside the engine is *virtual*: a deterministic clock advanced by
// counted elementary operations, so identical inputs always yield identical
// schedules, timestamps and scores. One virtual second corresponds to
// metrics.VirtualSecond elementary cost units.
package caqe

import (
	"fmt"
	"io"

	"caqe/internal/baseline"
	"caqe/internal/contract"
	"caqe/internal/core"
	"caqe/internal/datagen"
	"caqe/internal/join"
	"caqe/internal/preference"
	"caqe/internal/run"
	"caqe/internal/session"
	"caqe/internal/trace"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// Core data types, re-exported from the implementation packages.
type (
	// Relation is an in-memory base table.
	Relation = tuple.Relation
	// Schema describes a relation's numeric attributes and join keys.
	Schema = tuple.Schema
	// Tuple is one row.
	Tuple = tuple.Tuple
	// Subspace is a set of output-dimension indices (a skyline preference).
	Subspace = preference.Subspace
	// Contract is a progressiveness contract (utility of result timing).
	Contract = contract.Contract
	// Workload is the set of concurrent queries over shared relations.
	Workload = workload.Workload
	// Query is one skyline-over-join query with priority and contract.
	Query = workload.Query
	// EquiJoin is a join condition between key columns of R and T.
	EquiJoin = join.EquiJoin
	// MapFunc is a scalar mapping function defining one output dimension.
	MapFunc = join.MapFunc
	// Report is the outcome of one execution: emissions, satisfaction,
	// counters.
	Report = run.Report
	// Emission is one result delivered to one query.
	Emission = run.Emission
	// Options tunes the CAQE engine. It is itself a RunOption — passing a
	// bare Options value to Run or RunStrategy installs it as the engine
	// options, so call sites predating the variadic API keep compiling.
	Options = core.Options
)

// Execution tracing, re-exported from internal/trace. A Tracer attached
// via Options.Tracer receives one structured event per
// optimizer decision, emission batch and feedback update; tracing performs
// no counted work, so a traced run's report is byte-identical to an
// untraced one.
type (
	// Tracer consumes structured execution events.
	Tracer = trace.Tracer
	// TraceEvent is one structured execution event.
	TraceEvent = trace.Event
	// TraceKind discriminates trace events.
	TraceKind = trace.Kind
	// JSONLTracer streams events to an io.Writer as JSON Lines.
	JSONLTracer = trace.JSONLWriter
	// TraceAggregator folds events into live per-query satisfaction
	// timelines and counter snapshots, readable mid-execution.
	TraceAggregator = trace.Aggregator
	// TraceSnapshot is one aggregated view of a (possibly running) trace.
	TraceSnapshot = trace.Snapshot
)

// NewJSONLTracer returns a Tracer streaming events to w as JSON Lines,
// one schema-validated object per line. Call Flush when the run is done.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return trace.NewJSONLWriter(w) }

// NewTraceAggregator returns a Tracer that folds events into live
// per-query delivery/satisfaction timelines for the given workload.
// estTotals has the same meaning as in WithTotals; pass nil if unknown.
func NewTraceAggregator(w *Workload, estTotals []int) *TraceAggregator {
	contracts := make([]contract.Contract, len(w.Queries))
	for i, q := range w.Queries {
		contracts[i] = q.Contract
	}
	return trace.NewAggregator(contracts, estTotals)
}

// MultiTracer fans events out to several sinks (nil sinks are skipped).
func MultiTracer(sinks ...Tracer) Tracer { return trace.Multi(sinks...) }

// NewRelation returns an empty relation with the given schema.
func NewRelation(schema Schema) *Relation { return tuple.NewRelation(schema) }

// Dims builds a skyline preference over the given output dimensions.
func Dims(dims ...int) Subspace { return preference.NewSubspace(dims...) }

// SumDim returns the canonical output mapping R.a_k + T.a_k.
func SumDim(name string, k int) MapFunc { return join.Sum(name, k) }

// LeftDim returns an output mapping that passes through R.a_k.
func LeftDim(name string, k int) MapFunc { return join.LeftOnly(name, k) }

// RightDim returns an output mapping that passes through T.a_k.
func RightDim(name string, k int) MapFunc { return join.RightOnly(name, k) }

// WeightedDim returns lw·R.a_lk + rw·T.a_rk + bias.
func WeightedDim(name string, lk, rk int, lw, rw, bias float64) MapFunc {
	return join.Weighted(name, lk, rk, lw, rw, bias)
}

// Contracts of Table 2.

// Deadline is the hard-deadline contract C1: full utility up to tHard
// virtual seconds, zero after.
func Deadline(tHard float64) Contract { return contract.C1(tHard) }

// LogDecay is the logarithmic-decay contract C2: utility 1/log10(ts).
func LogDecay() Contract { return contract.C2() }

// SoftDeadline is the soft-deadline contract C3: full utility up to tSoft,
// then decaying as 1/(ts − tSoft).
func SoftDeadline(tSoft float64) Contract { return contract.C3(tSoft) }

// RateQuota is the cardinality contract C4: the given fraction of the final
// result must arrive in every interval (virtual seconds).
func RateQuota(frac, interval float64) Contract { return contract.C4(frac, interval) }

// Hybrid is the hybrid contract C5: the C4 quota utility multiplied by a
// 1/ts time decay.
func Hybrid(frac, interval float64) Contract { return contract.C5(frac, interval) }

// CustomContract wraps an arbitrary per-tuple utility of the emission time.
func CustomContract(name string, fn func(ts float64) float64) Contract {
	return contract.Func(name, fn)
}

// RunOption configures one aspect of an execution — see WithTotals and
// WithOnEmit. A bare Options value is also a RunOption (it installs the
// whole engine-options block, trace sink included). Options apply in the
// order given.
type RunOption = core.RunOption

// WithTotals supplies the exact final result cardinality of each query for
// cardinality-based contracts. Without it such contracts treat any
// delivery as quota-meeting; use GroundTruth to obtain exact totals.
func WithTotals(estTotals []int) RunOption {
	return core.RunOptionFunc(func(c *core.RunConfig) { c.Totals = estTotals })
}

// WithOnEmit installs a consumption hook called synchronously for every
// result at the moment the engine proves it final, before execution
// continues — the programmatic equivalent of the paper's progressive
// result reporting.
func WithOnEmit(fn func(Emission)) RunOption {
	return core.RunOptionFunc(func(c *core.RunConfig) { c.OnEmit = fn })
}

// Run executes the workload with the CAQE engine and returns the report.
//
//	report, err := caqe.Run(w, hotels, tours,
//	    caqe.Options{},
//	    caqe.WithTotals(totals),
//	    caqe.WithOnEmit(func(e caqe.Emission) { ... }))
func Run(w *Workload, r, t *Relation, opts ...RunOption) (*Report, error) {
	cfg := core.NewRunConfig(opts...)
	eng, err := core.New(w, r, t, cfg.Opt)
	if err != nil {
		return nil, err
	}
	return eng.ExecuteRun(cfg.Totals, cfg.OnEmit)
}

// StrategyName identifies one execution strategy runnable by RunStrategy.
type StrategyName string

// The available execution strategies: the paper's five-way comparison
// (CAQE, S-JFSL, JFSL, ProgXe+, SSMJ) plus the classical time-shared MQP
// executor of §1.3.
const (
	StrategyCAQE       StrategyName = "CAQE"
	StrategySJFSL      StrategyName = "S-JFSL"
	StrategyJFSL       StrategyName = "JFSL"
	StrategyProgXePlus StrategyName = "ProgXe+"
	StrategySSMJ       StrategyName = "SSMJ"
	StrategyTimeShared StrategyName = "TimeShared"
)

// StrategyNames returns every strategy runnable by RunStrategy, in the
// paper's comparison order.
func StrategyNames() []StrategyName {
	var names []StrategyName
	for _, n := range baseline.Names() {
		names = append(names, StrategyName(n))
	}
	return names
}

// RunStrategy executes the workload under the named strategy, enabling
// side-by-side comparisons on identical inputs. It accepts the same
// options as Run; of a bare Options value the comparison strategies honor
// the granularity knobs (TargetCells, GridResolution) and the tracer,
// while the two strategy switches (DataOrderScheduling, DisableContractBenefit)
// apply only to Run, where they make the engine run S-JFSL or ProgXe+.
func RunStrategy(name StrategyName, w *Workload, r, t *Relation, opts ...RunOption) (*Report, error) {
	cfg := core.NewRunConfig(opts...)
	s, err := baseline.Find(string(name), baseline.Options{
		TargetCells:    cfg.Opt.TargetCells,
		GridResolution: cfg.Opt.GridResolution,
		OnEmit:         cfg.OnEmit,
		Tracer:         cfg.Opt.Tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("caqe: %w", err)
	}
	return s.Run(w, r, t, cfg.Totals)
}

// GroundTruth computes the exact final result cardinality of every query
// (for cardinality-based contracts and verification) using an unmetered
// full evaluation.
func GroundTruth(w *Workload, r, t *Relation) ([]int, error) {
	_, totals, err := baseline.GroundTruth(w, r, t)
	return totals, err
}

// Data generation, re-exported for examples and experiments.
type (
	// DataConfig describes one synthetic benchmark relation.
	DataConfig = datagen.Config
	// Distribution selects the attribute correlation model.
	Distribution = datagen.Distribution
)

// Benchmark data distributions (Börzsönyi et al.).
const (
	Independent    = datagen.Independent
	Correlated     = datagen.Correlated
	AntiCorrelated = datagen.AntiCorrelated
)

// GenerateRelation builds a synthetic relation.
func GenerateRelation(cfg DataConfig) (*Relation, error) { return datagen.Generate(cfg) }

// GeneratePair builds the standard benchmark pair (R, T) with n rows each,
// d dimensions, the given distribution and equi-join selectivities.
func GeneratePair(n, d int, dist Distribution, selectivities []float64, seed int64) (*Relation, *Relation, error) {
	return datagen.Pair(n, d, dist, selectivities, seed)
}

// ReadRelationCSV loads a relation from CSV data: numeric attributes first,
// join key columns last, one record per tuple. With header true the first
// record is skipped. An attribute that is NaN or infinite is an error.
func ReadRelationCSV(r io.Reader, schema Schema, header bool) (*Relation, error) {
	return tuple.ReadCSV(r, schema, header)
}

// ProductContract combines component contracts multiplicatively — the
// generalization of Table 2's hybrid C5 (Eq. 5) to arbitrary components.
func ProductContract(components ...Contract) Contract {
	return contract.Product(components...)
}

// BlendedContract combines component contracts as a positively-weighted,
// normalized sum, for consumers whose requirements trade off rather than
// compound (the richer models of §3.3's footnote).
func BlendedContract(weights []float64, components ...Contract) Contract {
	return contract.WeightedSum(weights, components...)
}

// ---------------------------------------------------------------------------
// Online sessions

// Session is a long-lived online CAQE execution: queries are submitted and
// cancelled while the shared plan is running, and each query streams its
// guaranteed-final results through its SessionHandle. See OpenSession.
type (
	Session       = session.Session
	SessionConfig = session.Config
	SessionHandle = session.Handle
	SessionStats  = session.Stats
	SessionQuery  = session.QueryStats
	// SessionBackpressure bounds per-handle delivery buffers; see
	// SessionConfig.Backpressure and the delivery policies below.
	SessionBackpressure = session.Backpressure
	// SessionDeliveryPolicy selects the over-high-water behavior of a
	// handle's delivery buffer.
	SessionDeliveryPolicy = session.DeliveryPolicy
	// SessionStreamEvent is one item of SessionHandle.Events: an emission,
	// or a lag notice when the consumer fell behind.
	SessionStreamEvent = session.StreamEvent
	// SessionStreamStats snapshots one handle's delivery pipeline.
	SessionStreamStats = session.StreamStats
	// SessionDeliveryStats aggregates delivery health across a session.
	SessionDeliveryStats = session.DeliveryStats
	// SessionMutation is one batch of base-table changes (appends and/or
	// deletes on R or T) anchored at a virtual time; see Session.Mutate.
	SessionMutation = session.Mutation
	// SessionMutationResult reports an accepted mutation: reserved row IDs
	// and whether it has applied yet.
	SessionMutationResult = session.MutationResult
	// SessionMutationStats accumulates a session's applied mutations.
	SessionMutationStats = session.MutationStats
	// TupleData is one appended row: attributes and join keys shaped like
	// the target relation's schema.
	TupleData = core.TupleData
)

// Delivery policies for SessionBackpressure: keep streaming with bounded
// memory and lag notices, or sever streams whose consumers stall.
const (
	BlockExecutorNever = session.PolicyBlockExecutorNever
	DisconnectSlow     = session.PolicyDisconnectSlow
)

// MaxConcurrentQueries is the engine's representation limit on
// simultaneously live queries (query sets are 64-bit masks). Session
// lifetimes are unbounded — retired query slots are recycled — but
// SessionConfig.MaxConcurrent cannot exceed this.
const MaxConcurrentQueries = workload.MaxQueries

// Typed session errors, for mapping to transport-level responses (an HTTP
// server returns 429 for ErrAdmissionFull, 409 for ErrSessionFull, 503 for
// ErrDraining and ErrSessionOverloaded).
var (
	ErrSessionClosed     = session.ErrClosed
	ErrSessionDraining   = session.ErrDraining
	ErrAdmissionFull     = session.ErrAdmissionFull
	ErrSessionFull       = session.ErrSessionFull
	ErrUnknownQuery      = session.ErrUnknownQuery
	ErrSessionOverloaded = session.ErrOverloaded
)

// OpenSession starts an online session over loaded relations. Queries
// submitted before the session starts executing form the initial workload
// and run exactly as a batch Run would — byte-identical report included;
// queries submitted afterwards are admitted into the running execution
// with their contract anchored at the arrival virtual time. Close drains
// every admitted query and finalizes the report.
func OpenSession(cfg SessionConfig) (*Session, error) { return session.Open(cfg) }

// AnchoredContract shifts a contract's clock so its utilities are measured
// from the given arrival virtual time instead of from execution start.
// Sessions apply it automatically to mid-run submissions; it is exported
// for consumers composing contracts for replay or analysis. A non-positive
// arrival returns the contract unchanged.
func AnchoredContract(c Contract, arrival float64) Contract {
	return contract.Anchored(c, arrival)
}
