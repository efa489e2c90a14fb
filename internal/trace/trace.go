// Package trace is the observability layer of the execution engines: a
// structured, zero-overhead-when-disabled event stream recording every
// optimizer decision, emission batch and satisfaction-feedback update of a
// run — for CAQE and for every comparison strategy, so schedules produced
// by different techniques are directly comparable artifacts.
//
// Producers (the core optimizer loop, the baseline strategies and the
// shared run.Report) call Tracer.Trace with one Event per
// observation. Tracing never performs counted work: no event construction
// touches the virtual clock, so a traced run produces a report
// byte-identical to an untraced one (the determinism suite enforces this).
// When no tracer is configured the instrumentation reduces to a nil check
// and allocates nothing.
//
// Two sinks are provided: JSONLWriter streams events as JSON Lines for
// offline analysis (cmd/caqe-trace), and Aggregator maintains live
// in-memory counters and per-query delivery timelines that can be inspected
// mid-execution from another goroutine. Multi fans one stream out to
// several sinks.
package trace

import (
	"fmt"

	"caqe/internal/metrics"
)

// Kind classifies a trace event.
type Kind string

// Event kinds. Every run is bracketed by exactly one KindStart and one
// KindEnd; the events between them describe the schedule.
const (
	// KindStart opens one strategy run (Strategy is set).
	KindStart Kind = "start"
	// KindDecision records one scheduling decision: the optimizer picked a
	// region (Region, CSM) — or, for strategies without region scheduling,
	// a query (Query) — for processing. RunnerUp/RunnerUpCSM carry the best
	// candidate left behind and Frontier the number of remaining immediate
	// candidates; Queries lists the queries the decision serves.
	KindDecision Kind = "decision"
	// KindDefer records a region re-queued after a lazy CSM refresh showed
	// its score had decayed below the next-best candidate.
	KindDefer Kind = "defer"
	// KindDiscard records a region killed for one query by a generated
	// result (Algorithm 1's region discarding).
	KindDiscard Kind = "discard"
	// KindOpBatch records the rows leaving one stage of the executor's
	// region step: stage Op passed on Count rows for region Region. Purely
	// introspective — these events never carry counted work.
	KindOpBatch Kind = "op"
	// KindEmit records one batch of consecutive result deliveries to a
	// single query: Count results between virtual times T and TEnd.
	KindEmit Kind = "emit"
	// KindDelta records one base-table mutation applied to a running
	// executor: Op names the mutation and table ("append-r", "append-t",
	// "delete-r", "delete-t"), Count the tuples appended or deleted, Cells
	// the partition cells touched, Revived the processed regions reopened
	// for rescheduling, and — what a delete's repair cost — Removed the live
	// skyline window entries taken out and Resettled the surviving results
	// re-inserted.
	KindDelta Kind = "delta"
	// KindShardMerge records one fold step of a cluster coordinator's final
	// dominance-merge pass: shard Shard's CandsIn local-skyline candidates
	// for query Query were folded into the survivor set, leaving CandsOut
	// survivors after Count pairwise comparisons (each charged as a metered
	// skyline comparison at the coordinator).
	KindShardMerge Kind = "shardmerge"
	// KindFeedback records one Eq. 11 satisfaction-feedback update:
	// Weights are the new per-query scheduler weights, Deltas what was
	// added, Queries the report-space query index of each entry.
	KindFeedback Kind = "feedback"
	// KindEnd closes a strategy run with its end time and final counters.
	KindEnd Kind = "end"
)

// Kinds returns every event kind in canonical lifecycle order — the stable
// iteration order that metrics exposition and summaries rely on (Snapshot
// event counts are keyed by Kind in an unordered map).
func Kinds() []Kind {
	return []Kind{KindStart, KindDecision, KindDefer, KindOpBatch, KindDiscard, KindDelta, KindShardMerge, KindEmit, KindFeedback, KindEnd}
}

// Event is one structured trace record. Region, Query, RunnerUp and Shard
// use -1 for "not applicable"; New returns an Event with those defaults
// set. Every event carries the strategy label and the virtual timestamp T
// at which it was observed.
type Event struct {
	Seq      int64   `json:"seq"`
	Kind     Kind    `json:"kind"`
	Strategy string  `json:"strategy"`
	T        float64 `json:"t"`        // virtual seconds
	Region   int     `json:"region"`   // region ID, -1 when not applicable
	Query    int     `json:"query"`    // query index, -1 when not applicable
	RunnerUp int     `json:"runnerUp"` // runner-up region ID, -1 when none

	CSM         float64 `json:"csm,omitempty"`         // decision/defer: score of the chosen region
	RunnerUpCSM float64 `json:"runnerUpCsm,omitempty"` // decision: score of the runner-up
	Frontier    int     `json:"frontier,omitempty"`    // decision: immediate candidates remaining after the pick
	TEnd        float64 `json:"tEnd,omitempty"`        // emit: virtual time of the batch's last delivery
	Count       int     `json:"count,omitempty"`       // emit: results delivered in the batch; op: rows in the batch; shardmerge: pairwise comparisons charged; delta: tuples appended/deleted
	Op          string  `json:"op,omitempty"`          // op: operator that pushed the batch; delta: mutation kind and table ("append-r", "delete-t", ...)
	Cells       int     `json:"cells,omitempty"`       // delta: partition cells touched
	Revived     int     `json:"revived,omitempty"`     // delta: processed regions reopened for rescheduling
	Removed     int     `json:"removed,omitempty"`     // delta (delete): live skyline window entries of the deleted rows' results taken out
	Resettled   int     `json:"resettled,omitempty"`   // delta (delete): surviving results re-settled in the shared skyline

	Shard    int `json:"shard"`              // shardmerge: source shard id, -1 otherwise
	CandsIn  int `json:"candsIn,omitempty"`  // shardmerge: local-skyline candidates folded in
	CandsOut int `json:"candsOut,omitempty"` // shardmerge: survivors after the fold step

	Queries []int     `json:"queries,omitempty"` // decision/feedback: affected query indices
	Weights []float64 `json:"weights,omitempty"` // feedback: new scheduler weights
	Deltas  []float64 `json:"deltas,omitempty"`  // feedback: weight increments just applied

	EndTime  float64           `json:"endTime,omitempty"`  // end: virtual seconds at completion
	Counters *metrics.Counters `json:"counters,omitempty"` // end: final operation counters
}

// New returns an Event of the given kind with the index fields set to
// their not-applicable defaults.
func New(kind Kind) Event {
	return Event{Kind: kind, Region: -1, Query: -1, RunnerUp: -1, Shard: -1}
}

// Tracer receives the event stream of one or more runs. Implementations
// must tolerate being called from the single executor goroutine throughout
// a run; sinks that expose state to other goroutines (Aggregator) do their
// own locking. A Tracer must not retain the event's slices beyond the call
// unless it copies them.
type Tracer interface {
	Trace(ev Event)
}

// Validate checks an event against the schema: a known kind, sane
// timestamps, and the kind's required fields present. It is what
// cmd/caqe-trace -validate and the CI smoke trace run on every line.
func (e Event) Validate() error {
	if e.T < 0 {
		return fmt.Errorf("trace: negative timestamp %g", e.T)
	}
	if e.Strategy == "" {
		return fmt.Errorf("trace: %s event without strategy", e.Kind)
	}
	switch e.Kind {
	case KindStart:
		return nil
	case KindDecision:
		if e.Region < 0 && e.Query < 0 {
			return fmt.Errorf("trace: decision with neither region nor query")
		}
		if e.Frontier < 0 {
			return fmt.Errorf("trace: decision with negative frontier %d", e.Frontier)
		}
	case KindDefer:
		if e.Region < 0 {
			return fmt.Errorf("trace: defer without region")
		}
	case KindDiscard:
		if e.Region < 0 || e.Query < 0 {
			return fmt.Errorf("trace: discard needs region and query (got %d, %d)", e.Region, e.Query)
		}
	case KindOpBatch:
		if e.Op == "" {
			return fmt.Errorf("trace: op batch without operator name")
		}
		if e.Region < 0 {
			return fmt.Errorf("trace: op batch without region")
		}
		if e.Count < 0 {
			return fmt.Errorf("trace: op batch with negative row count %d", e.Count)
		}
	case KindEmit:
		if e.Query < 0 {
			return fmt.Errorf("trace: emit without query")
		}
		if e.Count < 1 {
			return fmt.Errorf("trace: emit batch of %d results", e.Count)
		}
		if e.TEnd < e.T {
			return fmt.Errorf("trace: emit batch ends at %g before it starts at %g", e.TEnd, e.T)
		}
	case KindDelta:
		switch e.Op {
		case "append-r", "append-t", "delete-r", "delete-t":
		default:
			return fmt.Errorf("trace: delta with unknown op %q", e.Op)
		}
		if e.Count < 1 {
			return fmt.Errorf("trace: delta of %d tuples", e.Count)
		}
		if e.Cells < 0 || e.Revived < 0 || e.Removed < 0 || e.Resettled < 0 {
			return fmt.Errorf("trace: delta with negative cells/revived/removed/resettled (%d, %d, %d, %d)", e.Cells, e.Revived, e.Removed, e.Resettled)
		}
	case KindShardMerge:
		if e.Shard < 0 {
			return fmt.Errorf("trace: shard merge without shard id")
		}
		if e.Query < 0 {
			return fmt.Errorf("trace: shard merge without query")
		}
		if e.CandsIn < 0 || e.CandsOut < 0 {
			return fmt.Errorf("trace: shard merge with negative candidate counts (%d in, %d out)", e.CandsIn, e.CandsOut)
		}
		if e.Count < 0 {
			return fmt.Errorf("trace: shard merge with negative comparison count %d", e.Count)
		}
	case KindFeedback:
		if len(e.Weights) == 0 || len(e.Weights) != len(e.Deltas) {
			return fmt.Errorf("trace: feedback with %d weights and %d deltas", len(e.Weights), len(e.Deltas))
		}
		if len(e.Queries) != len(e.Weights) {
			return fmt.Errorf("trace: feedback with %d weights for %d queries", len(e.Weights), len(e.Queries))
		}
	case KindEnd:
		if e.Counters == nil {
			return fmt.Errorf("trace: end event without counters")
		}
		if e.EndTime < 0 {
			return fmt.Errorf("trace: negative end time %g", e.EndTime)
		}
	default:
		return fmt.Errorf("trace: unknown event kind %q", e.Kind)
	}
	return nil
}

// multi fans events out to several sinks in order.
type multi []Tracer

func (m multi) Trace(ev Event) {
	for _, t := range m {
		t.Trace(ev)
	}
}

// Multi returns a tracer forwarding every event to each non-nil sink, or
// nil when none remain — so the result can be assigned directly to an
// options field and keep the disabled fast path.
func Multi(sinks ...Tracer) Tracer {
	var ts multi
	for _, s := range sinks {
		if s != nil {
			ts = append(ts, s)
		}
	}
	switch len(ts) {
	case 0:
		return nil
	case 1:
		return ts[0]
	}
	return ts
}
