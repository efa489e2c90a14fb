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

// Options configures one sharded batch execution. R is range-partitioned
// and every shard runs CAQE at the engine's default granularity.
type Options struct {
	// Shards is the shard count N (0 means 1).
	Shards int
	// Tracer receives the coordinator's event stream: one run bracket
	// around the per-(query, shard) merge events and the merged emission
	// batches. Shard executors run untraced (they execute concurrently;
	// their schedules are an implementation detail of the scatter phase).
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

// Run executes the workload sharded: R is partitioned per the topology,
// every shard runs CAQE over its partition (concurrently, each on its own
// engine and virtual clock, quota-blind), and the coordinator gathers the
// local skylines, translates row IDs back to global, runs the final
// dominance-merge pass per query, and delivers the merged result set in
// deterministic (virtual time, shard id, rid, tid) order. The merged
// report has no cardinality totals: no shard knows the global ones.
//
// The merged report's counters are the sum of the shard counters plus the
// merge-pass comparisons; its end time is the latest shard end time plus
// the merge cost — the makespan of an idealized cluster whose shards run
// in parallel and whose coordinator then merges. One shard takes the same
// path; its merge charges nothing (Merge).
func Run(w *workload.Workload, r, t *tuple.Relation, opt Options) (*run.Report, *RunStats, error) {
	if err := w.Validate(); err != nil {
		return nil, nil, err
	}
	shards := opt.Shards
	if shards == 0 {
		shards = 1
	}
	m, err := NewShardMap(shards, PartitionRange)
	if err != nil {
		return nil, nil, err
	}
	parts, table := m.Partition(r)
	stats := &RunStats{Map: m, Shards: make([]ShardRun, m.Shards)}
	// CAQE is the first of the compared strategies.
	strat := baseline.All(baseline.Options{})[0]

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
	rep := run.NewReport(strat.Name, w, nil)
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
		surv, mst := Merge(&kern, byShard, clock, opt.Tracer, strat.Name, qi)
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
