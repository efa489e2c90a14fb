package cluster

import (
	"fmt"
	"sort"
	"sync"

	"caqe/internal/baseline"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/run"
	"caqe/internal/trace"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// Options configures one sharded batch execution.
type Options struct {
	// Shards is the shard count N (0 and 1 both mean unsharded).
	Shards int
	// Partition selects the R partitioning strategy (default range).
	Partition Strategy
	// Strategy names the per-shard execution technique — any name the
	// baseline registry knows (CAQE, S-JFSL, JFSL, ProgXe+, SSMJ,
	// TimeShared); default CAQE.
	Strategy string
	// Totals supplies per-query final cardinalities for cardinality-based
	// contracts on the merged report. Shard executors always run
	// quota-blind (a shard cannot know the global cardinality); with one
	// shard the totals pass through to the (sole) executor, preserving
	// byte-identity with an unsharded run.
	Totals []int
	// Engine granularity knobs, forwarded to every shard executor.
	TargetCells, GridResolution int
	// OnEmit fires synchronously for each merged delivery.
	OnEmit func(run.Emission)
	// Tracer receives the coordinator's event stream: one run bracket
	// around the per-(query, shard) merge events and the merged emission
	// batches. Shard executors run untraced (they execute concurrently;
	// their schedules are an implementation detail of the scatter phase).
	// With one shard the tracer attaches to the executor itself.
	Tracer trace.Tracer
}

// ShardRun summarizes one shard's execution within a sharded batch run.
type ShardRun struct {
	Shard    int              `json:"shard"`
	Rows     int              `json:"rows"` // partition size |R_s|
	EndTime  float64          `json:"endTime"`
	Counters metrics.Counters `json:"counters"`
}

// RunStats is the scatter–gather accounting of one sharded batch run.
type RunStats struct {
	Map       ShardMap     `json:"map"`
	Shards    []ShardRun   `json:"shards"`
	Merge     []MergeStats `json:"merge"` // per query
	MergeCmps int64        `json:"mergeCmps"`
}

// findStrategy resolves a strategy name against the full registry (the
// paper's five-way comparison plus TimeShared), mirroring the root
// package's dispatch.
func findStrategy(name string, bopt baseline.Options) (baseline.Strategy, error) {
	all := append(baseline.All(bopt), baseline.Extra(bopt)...)
	for _, s := range all {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return baseline.Strategy{}, fmt.Errorf("cluster: unknown strategy %q (have %v)", name, names)
}

// Run executes the workload sharded: R is partitioned per the topology,
// every shard runs the named strategy over its partition (concurrently,
// each on its own engine and virtual clock), and the coordinator gathers
// the local skylines, translates row IDs back to global, runs the final
// dominance-merge pass per query, and delivers the merged result set in
// deterministic (virtual time, shard id, rid, tid) order.
//
// The merged report's counters are the sum of the shard counters plus the
// merge-pass comparisons; its end time is the latest shard end time plus
// the merge cost — the makespan of an idealized cluster whose shards run
// in parallel and whose coordinator then merges. With one shard the shard
// report passes through verbatim, byte-identical to an unsharded run.
func Run(w *workload.Workload, r, t *tuple.Relation, opt Options) (*run.Report, *RunStats, error) {
	if err := w.Validate(); err != nil {
		return nil, nil, err
	}
	shards := opt.Shards
	if shards == 0 {
		shards = 1
	}
	m, err := NewShardMap(shards, opt.Partition)
	if err != nil {
		return nil, nil, err
	}
	name := opt.Strategy
	if name == "" {
		name = "CAQE"
	}
	bopt := baseline.Options{
		TargetCells:    opt.TargetCells,
		GridResolution: opt.GridResolution,
	}
	parts, table := m.Partition(r)
	stats := &RunStats{Map: m, Shards: make([]ShardRun, m.Shards)}

	// Single shard: the coordinator is the identity. Totals, tracer and
	// emission hook attach to the one executor, so the report is
	// byte-identical to an unsharded run (the merge pass and its charges
	// vanish — a zero-candidate fold costs nothing).
	if m.Shards == 1 {
		bopt.Tracer = opt.Tracer
		bopt.OnEmit = opt.OnEmit
		strat, err := findStrategy(name, bopt)
		if err != nil {
			return nil, nil, err
		}
		rep, err := strat.Run(w, parts[0], t, opt.Totals)
		if err != nil {
			return nil, nil, err
		}
		stats.Shards[0] = ShardRun{Rows: parts[0].Len(), EndTime: rep.EndTime, Counters: rep.Counters}
		stats.Merge = make([]MergeStats, len(w.Queries))
		for qi := range w.Queries {
			stats.Merge[qi] = MergeStats{CandsIn: len(rep.PerQuery[qi]), CandsOut: len(rep.PerQuery[qi])}
		}
		return rep, stats, nil
	}

	strat, err := findStrategy(name, bopt)
	if err != nil {
		return nil, nil, err
	}

	// Scatter: every shard executes independently on its own clock.
	reps := make([]*run.Report, m.Shards)
	errs := make([]error, m.Shards)
	var wg sync.WaitGroup
	for s := 0; s < m.Shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			reps[s], errs[s] = strat.Run(w, parts[s], t, nil)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: shard %d: %w", s, err)
		}
	}

	maxEnd := 0.0
	var total metrics.Counters
	for s, srep := range reps {
		stats.Shards[s] = ShardRun{Shard: s, Rows: parts[s].Len(), EndTime: srep.EndTime, Counters: srep.Counters}
		total.Add(srep.Counters)
		if srep.EndTime > maxEnd {
			maxEnd = srep.EndTime
		}
	}

	// Gather + merge. The coordinator clock starts where the slowest shard
	// finished; merge comparisons are the only work charged on it.
	rep := run.NewReport(name, w, opt.Totals)
	rep.OnEmit = opt.OnEmit
	rep.StartTrace(opt.Tracer)
	clock := metrics.NewClock()
	clock.Advance(maxEnd * metrics.VirtualSecond)
	stats.Merge = make([]MergeStats, len(w.Queries))
	var merged []Candidate
	for qi := range w.Queries {
		byShard := make([][]Candidate, m.Shards)
		for s, srep := range reps {
			cands := make([]Candidate, 0, len(srep.PerQuery[qi]))
			for _, e := range srep.PerQuery[qi] {
				e.RID = table[s][e.RID]
				cands = append(cands, Candidate{Shard: s, Emission: e})
			}
			byShard[s] = cands
		}
		kern := preference.NewKernel(w.Queries[qi].Pref)
		surv, mst := Merge(&kern, byShard, clock, opt.Tracer, name, qi)
		stats.Merge[qi] = mst
		stats.MergeCmps += mst.Cmps
		merged = append(merged, surv...)
	}

	// Deliver in the deterministic global order; each emission keeps its
	// shard-local delivery timestamp.
	sortCandidates(merged)
	for _, c := range merged {
		rep.Emit(c.Emission)
	}
	total.Add(clock.Counters())
	rep.Finish(clock.Now()/metrics.VirtualSecond, total)
	return rep, stats, nil
}

// sortCandidates orders merged candidates across queries by (virtual time,
// shard id, rid, tid, query) — the delivery order of the merged report.
func sortCandidates(cs []Candidate) {
	sort.SliceStable(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		if a.RID != b.RID {
			return a.RID < b.RID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Query < b.Query
	})
}
