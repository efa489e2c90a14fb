package caqe_test

import (
	"bytes"
	"testing"

	"caqe"
	"caqe/internal/trace"
)

// TestTracingByteIdentical is the zero-overhead contract of the trace
// layer: for every strategy and distribution, a run with a JSONL tracer
// attached must reproduce the untraced report exactly — results, emission
// order, virtual timestamps, counters and end time.
// Along the way every emitted event must validate against the schema and
// reconcile with the report it describes.
func TestTracingByteIdentical(t *testing.T) {
	dists := []struct {
		name string
		d    caqe.Distribution
	}{
		{"correlated", caqe.Correlated},
		{"independent", caqe.Independent},
		{"anticorrelated", caqe.AntiCorrelated},
	}
	w := determinismWorkload()
	for _, dist := range dists {
		t.Run(dist.name, func(t *testing.T) {
			r, tt, err := caqe.GeneratePair(400, 3, dist.d, []float64{0.05, 0.05}, 7)
			if err != nil {
				t.Fatal(err)
			}
			totals, err := caqe.GroundTruth(w, r, tt)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range caqe.StrategyNames() {
				// "w1": every run is one executor on one goroutine.
				t.Run(string(name)+"/w1", func(t *testing.T) {
					plain, err := caqe.RunStrategy(name, w, r, tt, caqe.WithTotals(totals))
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					jw := caqe.NewJSONLTracer(&buf)
					traced, err := caqe.RunStrategy(name, w, r, tt,
						caqe.WithTotals(totals), caqe.WithTracer(jw))
					if err != nil {
						t.Fatal(err)
					}
					if err := jw.Flush(); err != nil {
						t.Fatal(err)
					}
					requireIdenticalReports(t, plain, traced)
					events, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
					if err != nil {
						t.Fatalf("trace stream invalid: %v", err)
					}
					checkTraceInvariants(t, string(name), traced, events)
				})
			}
		})
	}
}

// checkTraceInvariants reconciles an event stream with the report of the
// run that produced it.
func checkTraceInvariants(t *testing.T, name string, rep *caqe.Report, events []trace.Event) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("tracer saw no events")
	}
	kinds := make(map[trace.Kind]int)
	emitted := 0
	for _, ev := range events {
		if ev.Strategy != name {
			t.Fatalf("event %d labeled %q, want %q", ev.Seq, ev.Strategy, name)
		}
		kinds[ev.Kind]++
		if ev.Kind == trace.KindEmit {
			emitted += ev.Count
		}
	}
	if kinds[trace.KindStart] != 1 || kinds[trace.KindEnd] != 1 {
		t.Fatalf("want exactly one start and one end event, got %d / %d",
			kinds[trace.KindStart], kinds[trace.KindEnd])
	}
	if first, last := events[0], events[len(events)-1]; first.Kind != trace.KindStart || last.Kind != trace.KindEnd {
		t.Fatalf("stream brackets: first %s, last %s", first.Kind, last.Kind)
	}
	total := 0
	for _, ems := range rep.PerQuery {
		total += len(ems)
	}
	if emitted != total {
		t.Fatalf("emit batches cover %d results, report delivered %d", emitted, total)
	}
	if kinds[trace.KindDecision] == 0 {
		t.Fatal("no decision events")
	}
	end := events[len(events)-1]
	if end.Counters == nil {
		t.Fatal("end event carries no counters")
	}
	if *end.Counters != rep.Counters {
		t.Fatalf("end counters %+v differ from report %+v", *end.Counters, rep.Counters)
	}
	if end.EndTime != rep.EndTime {
		t.Fatalf("end time %v vs report %v", end.EndTime, rep.EndTime)
	}
	// The core engine traces exactly one decision per region processed at
	// tuple level; the per-query baselines and ProgXe+ add query grants on
	// top, so equality holds only for the pure region schedulers.
	if name == "CAQE" || name == "S-JFSL" {
		if int64(kinds[trace.KindDecision]) != rep.Counters.RegionsDone {
			t.Fatalf("%d decision events for %d processed regions",
				kinds[trace.KindDecision], rep.Counters.RegionsDone)
		}
	}
}

// TestTraceAggregatorIntegration attaches the in-memory aggregator through
// the public API (fanned out alongside a JSONL sink) and checks the
// archived snapshot reconciles with the report.
func TestTraceAggregatorIntegration(t *testing.T) {
	w := determinismWorkload()
	r, tt, err := caqe.GeneratePair(300, 3, caqe.Independent, []float64{0.05, 0.05}, 3)
	if err != nil {
		t.Fatal(err)
	}
	totals, err := caqe.GroundTruth(w, r, tt)
	if err != nil {
		t.Fatal(err)
	}
	agg := caqe.NewTraceAggregator(w, totals)
	var buf bytes.Buffer
	jw := caqe.NewJSONLTracer(&buf)
	rep, err := caqe.Run(w, r, tt, caqe.WithTotals(totals), caqe.WithTracer(caqe.MultiTracer(agg, jw)))
	if err != nil {
		t.Fatal(err)
	}
	runs := agg.Runs()
	if len(runs) != 1 {
		t.Fatalf("aggregator archived %d runs", len(runs))
	}
	snap := runs[0]
	if snap.Strategy != "CAQE" || snap.EndTime != rep.EndTime {
		t.Fatalf("snapshot %q end %v, report end %v", snap.Strategy, snap.EndTime, rep.EndTime)
	}
	for qi, ems := range rep.PerQuery {
		if snap.Delivered[qi] != int64(len(ems)) {
			t.Fatalf("query %d: aggregator saw %d deliveries, report has %d",
				qi, snap.Delivered[qi], len(ems))
		}
	}
	if buf.Len() == 0 {
		t.Fatal("JSONL sink saw nothing through MultiTracer")
	}
}

// TestStrategyNameConstants pins the typed names to the strategy table.
func TestStrategyNameConstants(t *testing.T) {
	want := []caqe.StrategyName{
		caqe.StrategyCAQE, caqe.StrategySJFSL, caqe.StrategyJFSL,
		caqe.StrategyProgXePlus, caqe.StrategySSMJ, caqe.StrategyTimeShared,
	}
	got := caqe.StrategyNames()
	if len(got) != len(want) {
		t.Fatalf("StrategyNames() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StrategyNames()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := caqe.RunStrategy("bogus", nil, nil, nil); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}
