package main

import (
	"math"
	"sort"
	"time"

	"caqe/internal/trace"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// vals: the smallest sample with at least p % of the samples at or below
// it. It sorts a copy; an empty input yields 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th nearest-rank percentile for odd sample counts and the
// mean of the two middle samples for even ones, so a two-sample median is
// not biased low.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// stampedEvent is one engine trace event with the wall time at which the
// benchmark's tracer received it.
type stampedEvent struct {
	at   time.Duration // since the tracer was created
	kind trace.Kind
	op   string
}

// phaseTimes is the wall time of one traced execution split by what the
// executor was doing, plus the event counts the split is built from.
type phaseTimes struct {
	join, dominance, sched time.Duration
	decisions, deferrals   int
}

// Operator names as the engine's trace events carry them (core/pipeline.go).
const (
	opPartitionScan   = "PartitionScan"
	opSignatureJoin   = "SignatureJoin"
	opDominanceFilter = "DominanceFilter"
)

// attribute splits the time between consecutive events by the phase the
// earlier events put the executor in. Per scheduled region the engine
// emits decision, then per join condition "op PartitionScan" (the cell
// pair is offered to the join) and "op SignatureJoin" (the join results
// exist and are about to enter the shared skyline), then once
// "op DominanceFilter" (inserts, region discard and edge release are
// over). So the interval after PartitionScan is join time, the interval
// after SignatureJoin is dominance time, and everything from
// DominanceFilter to the next PartitionScan — safety vetting, emission,
// Eq. 11 feedback, the next pick — is scheduler time. Other event kinds
// (discard, emit, feedback, defer, delta) do not change the phase.
func attribute(events []stampedEvent) phaseTimes {
	var pt phaseTimes
	cur := &pt.sched
	for i, ev := range events {
		if i > 0 {
			*cur += ev.at - events[i-1].at
		}
		switch ev.kind {
		case trace.KindDecision:
			pt.decisions++
			cur = &pt.sched
		case trace.KindDefer:
			pt.deferrals++
		case trace.KindOpBatch:
			switch ev.op {
			case opPartitionScan:
				cur = &pt.join
			case opSignatureJoin:
				cur = &pt.dominance
			case opDominanceFilter:
				cur = &pt.sched
			}
		}
	}
	return pt
}

// wallTracer is the benchmark's trace sink: it stamps each event with the
// wall clock and keeps the spans in memory until the run ends.
type wallTracer struct {
	start  time.Time
	events []stampedEvent
}

func newWallTracer() *wallTracer { return &wallTracer{start: time.Now()} }

func (t *wallTracer) Trace(ev trace.Event) {
	t.events = append(t.events, stampedEvent{at: time.Since(t.start), kind: ev.Kind, op: ev.Op})
}
