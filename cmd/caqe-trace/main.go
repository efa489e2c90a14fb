// Command caqe-trace inspects the structured execution traces written by
// caqe, caqe-bench and the library's JSONL tracer (-trace / Options.Tracer):
// per-run decision summaries, per-query delivery curves, and side-by-side
// schedule diffs between strategies.
//
// Usage:
//
//	caqe-trace [-validate] [-summary] [-curves] [-samples n]
//	           [-diff CAQE,S-JFSL] trace.jsonl
//
// With no mode flags -summary is implied. -validate checks every line
// against the event schema and exits non-zero on the first violation —
// the CI smoke test runs it over a fresh caqe-bench trace. -diff exits 0
// when the two runs scheduled identically and 3 when they diverged
// (different decision sequences, end times or counters), so determinism
// checks can be scripted: caqe-trace -diff CAQE,CAQE must succeed, while
// comparing different strategies must not.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"caqe/internal/trace"
)

func main() {
	var (
		validate = flag.Bool("validate", false, "schema-check every event, print totals, exit non-zero on violations")
		summary  = flag.Bool("summary", false, "print per-run decision summaries (default when no other mode is given)")
		curves   = flag.Bool("curves", false, "print per-query delivery curves")
		samples  = flag.Int("samples", 10, "samples per delivery curve")
		diff     = flag.String("diff", "", "compare the schedules of two runs, e.g. CAQE,S-JFSL")
	)
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: caqe-trace [flags] trace.jsonl")
		os.Exit(2)
	}
	if err := runCLI(flag.Arg(0), *validate, *summary, *curves, *samples, *diff); err != nil {
		fmt.Fprintf(os.Stderr, "caqe-trace: %v\n", err)
		if errors.Is(err, errDiverged) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func runCLI(path string, validate, summary, curves bool, samples int, diff string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// ReadAll strict-decodes and schema-validates every line.
	events, err := trace.ReadAll(f)
	if err != nil {
		return err
	}
	runs, err := splitRuns(events)
	if err != nil {
		return err
	}

	if !validate && !curves && diff == "" {
		summary = true
	}
	if validate {
		fmt.Printf("%s: %d events, %d runs, schema OK\n", path, len(events), len(runs))
		for _, r := range runs {
			fmt.Printf("  %-12s %6d decisions %6d defers %6d discards %6d emit batches %4d feedback\n",
				r.strategy, r.kinds[trace.KindDecision], r.kinds[trace.KindDefer],
				r.kinds[trace.KindDiscard], r.kinds[trace.KindEmit], r.kinds[trace.KindFeedback])
		}
	}
	if summary {
		for _, r := range runs {
			printSummary(r)
		}
	}
	if curves {
		for _, r := range runs {
			printCurves(r, samples)
		}
	}
	if diff != "" {
		names := strings.SplitN(diff, ",", 2)
		if len(names) != 2 {
			return fmt.Errorf("-diff wants two comma-separated strategy names, got %q", diff)
		}
		a, b := findRun(runs, names[0]), findRun(runs, names[1])
		if a == nil || b == nil {
			var have []string
			for _, r := range runs {
				have = append(have, r.strategy)
			}
			return fmt.Errorf("-diff %s: trace holds runs %v", diff, have)
		}
		if printDiff(a, b) {
			return errDiverged
		}
	}
	return nil
}

// errDiverged signals that -diff found the two schedules unequal; main
// maps it to a dedicated exit code so scripts can separate "diverged"
// from "broken input".
var errDiverged = errors.New("schedules diverge")

// runTrace is the event stream of one strategy execution, bracketed by
// start/end events.
type runTrace struct {
	strategy string
	events   []trace.Event
	kinds    map[trace.Kind]int
	endTime  float64
	counters string
}

// splitRuns groups a sequential event stream into runs on the start/end
// brackets every strategy execution emits.
func splitRuns(events []trace.Event) ([]*runTrace, error) {
	var runs []*runTrace
	var cur *runTrace
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindStart:
			if cur != nil {
				return nil, fmt.Errorf("seq %d: run %q starts inside run %q", ev.Seq, ev.Strategy, cur.strategy)
			}
			cur = &runTrace{strategy: ev.Strategy, kinds: make(map[trace.Kind]int)}
		case trace.KindEnd:
			if cur == nil {
				return nil, fmt.Errorf("seq %d: end event outside any run", ev.Seq)
			}
			cur.endTime = ev.EndTime
			if ev.Counters != nil {
				cur.counters = ev.Counters.String()
			}
			runs = append(runs, cur)
			cur = nil
		default:
			if cur == nil {
				return nil, fmt.Errorf("seq %d: %s event outside any run", ev.Seq, ev.Kind)
			}
			cur.events = append(cur.events, ev)
			cur.kinds[ev.Kind]++
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("run %q has no end event (truncated trace?)", cur.strategy)
	}
	return runs, nil
}

func findRun(runs []*runTrace, name string) *runTrace {
	for _, r := range runs {
		if r.strategy == name {
			return r
		}
	}
	return nil
}

func printSummary(r *runTrace) {
	fmt.Printf("== %s ==\n", r.strategy)
	fmt.Printf("  end %.1f vs; %d decisions, %d defers, %d discards, %d feedback updates\n",
		r.endTime, r.kinds[trace.KindDecision], r.kinds[trace.KindDefer],
		r.kinds[trace.KindDiscard], r.kinds[trace.KindFeedback])
	emitted, batches := 0, 0
	margins, frontiers := 0.0, 0
	withRunnerUp := 0
	folds, candsIn, mergeCmps := 0, 0, 0
	mergeShards := make(map[int]bool)
	// Each fold reports the running survivor total, so the final fold per
	// query carries that query's global skyline size.
	lastOut := make(map[int]int)
	for _, ev := range r.events {
		switch ev.Kind {
		case trace.KindEmit:
			emitted += ev.Count
			batches++
		case trace.KindDecision:
			frontiers += ev.Frontier
			if ev.RunnerUp >= 0 {
				margins += ev.CSM - ev.RunnerUpCSM
				withRunnerUp++
			}
		case trace.KindShardMerge:
			folds++
			candsIn += ev.CandsIn
			lastOut[ev.Query] = ev.CandsOut
			mergeCmps += ev.Count
			mergeShards[ev.Shard] = true
		}
	}
	fmt.Printf("  %d results in %d emission batches", emitted, batches)
	if batches > 0 {
		fmt.Printf(" (%.1f per batch)", float64(emitted)/float64(batches))
	}
	fmt.Println()
	if n := r.kinds[trace.KindDecision]; n > 0 {
		fmt.Printf("  mean frontier %.1f", float64(frontiers)/float64(n))
		if withRunnerUp > 0 {
			fmt.Printf("; mean CSM margin over runner-up %.3g (%d contested picks)",
				margins/float64(withRunnerUp), withRunnerUp)
		}
		fmt.Println()
	}
	if folds > 0 {
		candsOut := 0
		for _, n := range lastOut {
			candsOut += n
		}
		fmt.Printf("  shard merge: %d folds over %d shards, %d candidates -> %d survivors, %d comparisons\n",
			folds, len(mergeShards), candsIn, candsOut, mergeCmps)
	}
	if r.counters != "" {
		fmt.Printf("  work: %s\n", r.counters)
	}
}

// printCurves renders each query's cumulative delivery count sampled at
// evenly spaced instants of the run.
func printCurves(r *runTrace, samples int) {
	if samples < 1 {
		samples = 1
	}
	fmt.Printf("== %s delivery curves ==\n", r.strategy)
	perQuery := make(map[int][]trace.Event)
	for _, ev := range r.events {
		if ev.Kind == trace.KindEmit {
			perQuery[ev.Query] = append(perQuery[ev.Query], ev)
		}
	}
	queries := make([]int, 0, len(perQuery))
	for qi := range perQuery {
		queries = append(queries, qi)
	}
	sort.Ints(queries)
	for _, qi := range queries {
		ems := perQuery[qi]
		total := 0
		for _, ev := range ems {
			total += ev.Count
		}
		fmt.Printf("  Q%-3d %5d results:", qi, total)
		for s := 1; s <= samples; s++ {
			cut := r.endTime * float64(s) / float64(samples)
			n := 0
			for _, ev := range ems {
				switch {
				case ev.TEnd <= cut:
					n += ev.Count
				case ev.T <= cut && ev.TEnd > ev.T:
					// Batch partially inside the cut: interpolate linearly
					// over its [T, TEnd] span, as the aggregator does.
					n += int(float64(ev.Count) * (cut - ev.T) / (ev.TEnd - ev.T))
				}
			}
			fmt.Printf(" %5d", n)
		}
		fmt.Println()
	}
}

// printDiff compares two runs: when each query's results arrived (the
// observable schedule difference) and how the decision streams diverge.
// printDiff reports the schedule comparison and returns whether the two
// runs diverged (different decision sequences, end times or counters).
func printDiff(a, b *runTrace) (diverged bool) {
	fmt.Printf("== %s vs %s ==\n", a.strategy, b.strategy)
	fmt.Printf("  end time     %10.1f vs %10.1f virtual seconds\n", a.endTime, b.endTime)
	fmt.Printf("  decisions    %10d vs %10d\n", a.kinds[trace.KindDecision], b.kinds[trace.KindDecision])

	// Per-query delivery midpoints: the time by which half a query's
	// results had arrived under each strategy.
	half := func(r *runTrace) map[int]float64 {
		totals := make(map[int]int)
		for _, ev := range r.events {
			if ev.Kind == trace.KindEmit {
				totals[ev.Query] += ev.Count
			}
		}
		got := make(map[int]int)
		out := make(map[int]float64)
		for _, ev := range r.events {
			if ev.Kind != trace.KindEmit {
				continue
			}
			if _, done := out[ev.Query]; done {
				continue
			}
			got[ev.Query] += ev.Count
			if 2*got[ev.Query] >= totals[ev.Query] {
				out[ev.Query] = ev.TEnd
			}
		}
		return out
	}
	ha, hb := half(a), half(b)
	queries := make([]int, 0, len(ha))
	for qi := range ha {
		queries = append(queries, qi)
	}
	sort.Ints(queries)
	fmt.Println("  per-query time to half the results (virtual seconds):")
	for _, qi := range queries {
		va, vb := ha[qi], hb[qi]
		mark := ""
		if va < vb {
			mark = fmt.Sprintf("%s earlier", a.strategy)
		} else if vb < va {
			mark = fmt.Sprintf("%s earlier", b.strategy)
		}
		fmt.Printf("    Q%-3d %10.1f vs %10.1f  %s\n", qi, va, vb, mark)
	}

	// First divergence of the decision streams (region-scheduling runs
	// only agree while they pick the same regions in the same order).
	da, db := decisions(a), decisions(b)
	common := 0
	for common < len(da) && common < len(db) && da[common] == db[common] {
		common++
	}
	switch {
	case common == len(da) && common == len(db):
		fmt.Printf("  identical decision sequences (%d decisions)\n", common)
	case common < len(da) && common < len(db):
		diverged = true
		fmt.Printf("  schedules diverge at decision %d: %s picks %s, %s picks %s\n",
			common+1, a.strategy, da[common], b.strategy, db[common])
	default:
		diverged = true
		fmt.Printf("  %d common decisions, then lengths differ (%d vs %d)\n",
			common, len(da), len(db))
	}
	if a.endTime != b.endTime || a.counters != b.counters {
		diverged = true
	}
	return diverged
}

// decisions flattens a run's decision stream to comparable labels.
func decisions(r *runTrace) []string {
	var out []string
	for _, ev := range r.events {
		if ev.Kind != trace.KindDecision {
			continue
		}
		if ev.Region >= 0 {
			out = append(out, fmt.Sprintf("region %d", ev.Region))
		} else {
			out = append(out, fmt.Sprintf("query %d", ev.Query))
		}
	}
	return out
}
