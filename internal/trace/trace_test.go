package trace

import (
	"bytes"
	"strings"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/metrics"
)

func TestValidateKinds(t *testing.T) {
	c := &metrics.Counters{}
	good := []Event{
		{Kind: KindStart, Strategy: "CAQE", Region: -1, Query: -1, RunnerUp: -1},
		{Kind: KindDecision, Strategy: "CAQE", Region: 3, Query: -1, RunnerUp: 5, CSM: 1.5, Frontier: 2},
		{Kind: KindDecision, Strategy: "JFSL", Region: -1, Query: 0, RunnerUp: -1},
		{Kind: KindDefer, Strategy: "CAQE", Region: 1, Query: -1, RunnerUp: -1},
		{Kind: KindDiscard, Strategy: "CAQE", Region: 2, Query: 1, RunnerUp: -1},
		{Kind: KindEmit, Strategy: "CAQE", Region: -1, Query: 0, RunnerUp: -1, Count: 3, T: 1, TEnd: 2},
		{Kind: KindFeedback, Strategy: "CAQE", Region: -1, Query: -1, RunnerUp: -1,
			Queries: []int{0, 1}, Weights: []float64{1, 2}, Deltas: []float64{0.1, 0.9}},
		{Kind: KindShardMerge, Strategy: "CAQE", Region: -1, Query: 2, RunnerUp: -1,
			Shard: 1, CandsIn: 4, CandsOut: 3, Count: 7},
		{Kind: KindShardMerge, Strategy: "CAQE", Region: -1, Query: 0, RunnerUp: -1, Shard: 0},
		{Kind: KindDelta, Strategy: "CAQE", Region: -1, Query: -1, RunnerUp: -1, Op: "append-t", Count: 4, Cells: 2, Revived: 9},
		{Kind: KindDelta, Strategy: "CAQE", Region: -1, Query: -1, RunnerUp: -1, Op: "delete-r", Count: 1, Cells: 1, Removed: 3, Resettled: 17},
		{Kind: KindEnd, Strategy: "CAQE", Region: -1, Query: -1, RunnerUp: -1, EndTime: 10, Counters: c},
	}
	for _, ev := range good {
		if err := ev.Validate(); err != nil {
			t.Errorf("%s: unexpected error: %v", ev.Kind, err)
		}
	}
	bad := []Event{
		{Kind: "bogus", Strategy: "CAQE"},
		{Kind: KindStart},                                              // no strategy
		{Kind: KindDecision, Strategy: "X", Region: -1, Query: -1},     // no target
		{Kind: KindEmit, Strategy: "X", Query: 0, Count: 0},            // empty batch
		{Kind: KindEmit, Strategy: "X", Query: 0, Count: 1, T: 2},      // TEnd < T
		{Kind: KindFeedback, Strategy: "X", Weights: []float64{1}},     // no deltas
		{Kind: KindEnd, Strategy: "X"},                                 // no counters
		{Kind: KindDiscard, Strategy: "X", Region: 1, Query: -1},       // no query
		{Kind: KindDecision, Strategy: "X", Region: 0, Frontier: -1},   // bad frontier
		{Kind: KindStart, Strategy: "X", T: -1, Region: -1, Query: -1}, // negative time
		{Kind: KindShardMerge, Strategy: "X", Region: -1, Query: 0,
			RunnerUp: -1, Shard: -1}, // no shard
		{Kind: KindShardMerge, Strategy: "X", Region: -1, Query: -1,
			RunnerUp: -1, Shard: 0}, // no query
		{Kind: KindShardMerge, Strategy: "X", Region: -1, Query: 0,
			RunnerUp: -1, Shard: 0, CandsIn: -1}, // negative candidates
		{Kind: KindShardMerge, Strategy: "X", Region: -1, Query: 0,
			RunnerUp: -1, Shard: 0, Count: -1}, // negative comparisons
		{Kind: KindDelta, Strategy: "X", Op: "delete-x", Count: 1},                // unknown table
		{Kind: KindDelta, Strategy: "X", Op: "delete-r", Count: 1, Removed: -1},   // negative removals
		{Kind: KindDelta, Strategy: "X", Op: "delete-r", Count: 1, Resettled: -1}, // negative re-settles
	}
	for i, ev := range bad {
		if err := ev.Validate(); err == nil {
			t.Errorf("bad[%d] (%s): validated", i, ev.Kind)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	events := []Event{
		New(KindStart),
		New(KindDecision),
		New(KindEmit),
		New(KindShardMerge),
		New(KindEnd),
	}
	events[0].Strategy = "CAQE"
	events[1].Strategy, events[1].Region, events[1].CSM, events[1].Frontier = "CAQE", 7, 3.25, 4
	events[2].Strategy, events[2].Query, events[2].Count, events[2].T, events[2].TEnd = "CAQE", 2, 5, 1.5, 2.5
	events[3].Strategy, events[3].Query, events[3].Shard = "CAQE", 2, 3
	events[3].CandsIn, events[3].CandsOut, events[3].Count = 9, 6, 17
	events[4].Strategy, events[4].EndTime, events[4].Counters = "CAQE", 9.5, &metrics.Counters{JoinProbes: 42}
	for _, ev := range events {
		jw.Trace(ev)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, wrote %d", len(got), len(events))
	}
	for i, ev := range got {
		if ev.Seq != int64(i) {
			t.Errorf("event %d: seq %d", i, ev.Seq)
		}
		if ev.Kind != events[i].Kind || ev.Region != events[i].Region || ev.Query != events[i].Query {
			t.Errorf("event %d: round-trip mismatch: %+v", i, ev)
		}
	}
	if got[3].Shard != 3 || got[3].CandsIn != 9 || got[3].CandsOut != 6 || got[3].Count != 17 {
		t.Errorf("shardmerge fields lost: %+v", got[3])
	}
	if got[4].Counters == nil || got[4].Counters.JoinProbes != 42 {
		t.Errorf("end counters lost: %+v", got[4].Counters)
	}
}

func TestValidateLineRejectsUnknownFields(t *testing.T) {
	if _, err := ValidateLine([]byte(`{"seq":0,"kind":"start","strategy":"X","t":0,"region":-1,"query":-1,"runnerUp":-1,"surprise":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ValidateLine([]byte(`not json`)); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestReadAllReportsLineNumber(t *testing.T) {
	src := `{"seq":0,"kind":"start","strategy":"X","t":0,"region":-1,"query":-1,"runnerUp":-1}
{"seq":1,"kind":"bogus","strategy":"X","t":0,"region":-1,"query":-1,"runnerUp":-1}`
	_, err := ReadAll(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}

func TestMulti(t *testing.T) {
	var a, b countingTracer
	m := Multi(nil, &a, nil, &b)
	m.Trace(New(KindStart))
	m.Trace(New(KindEnd))
	if a.n != 2 || b.n != 2 {
		t.Fatalf("fan-out counts %d, %d", a.n, b.n)
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi of nils should be nil")
	}
	if Multi(&a) != &a {
		t.Fatal("Multi of one sink should be the sink itself")
	}
}

type countingTracer struct{ n int }

func (c *countingTracer) Trace(Event) { c.n++ }

func TestAggregatorLiveTimeline(t *testing.T) {
	contracts := []contract.Contract{contract.C1(10), contract.C2()}
	agg := NewAggregator(contracts, []int{4, 4})

	start := New(KindStart)
	start.Strategy = "CAQE"
	agg.Trace(start)

	dec := New(KindDecision)
	dec.Strategy, dec.Region, dec.CSM = "CAQE", 0, 2.0
	agg.Trace(dec)

	em := New(KindEmit)
	em.Strategy, em.Query, em.Count, em.T, em.TEnd = "CAQE", 0, 3, 1, 2
	agg.Trace(em)

	// Live snapshot mid-run: no end event yet.
	s := agg.Snapshot()
	if s.Strategy != "CAQE" || s.EndTime != 0 {
		t.Fatalf("live snapshot: %+v", s)
	}
	if s.Delivered[0] != 3 {
		t.Fatalf("delivered %v", s.Delivered)
	}
	if s.Satisfaction == nil || s.Satisfaction[0] != 1 { // C1 within deadline
		t.Fatalf("satisfaction %v", s.Satisfaction)
	}
	tl := agg.Timeline(0)
	if len(tl) != 1 || tl[0].Delivered != 3 || tl[0].T != 2 {
		t.Fatalf("timeline %+v", tl)
	}

	end := New(KindEnd)
	end.Strategy, end.EndTime, end.Counters = "CAQE", 12.5, &metrics.Counters{TuplesEmitted: 3}
	agg.Trace(end)

	runs := agg.Runs()
	if len(runs) != 1 || runs[0].EndTime != 12.5 || runs[0].Events[KindDecision] != 1 {
		t.Fatalf("runs %+v", runs)
	}
	if agg.Snapshot().Strategy != "" {
		t.Fatal("current run should be reset after end")
	}
}
