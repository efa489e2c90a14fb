package cluster

import (
	"sort"

	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/skyline"
	"caqe/internal/trace"
)

// MergeStats summarizes one query's final dominance-merge pass.
type MergeStats struct {
	CandsIn  int   `json:"candsIn"`  // gathered local-skyline candidates
	CandsOut int   `json:"candsOut"` // global skyline size after the merge
	Cmps     int64 `json:"cmps"`     // pairwise comparisons charged
}

// Merge runs the final dominance pass for one query: fold each shard's
// candidates — shards in shard-ID order, candidates in shard delivery
// order — into a survivor set, then order the survivors by (virtual time,
// shard id, rid, tid) so merged reports are reproducible regardless of
// gather timing.
//
// The fold is one skyline.Window: every candidate is compared against the
// current survivors in insertion order, and each pairwise comparison
// charges one metered skyline comparison on clock (the coordinator's clock
// — shard executors never see this work). Equal points do not dominate
// each other, matching the engine's skyline semantics, so ties survive on
// every shard and here. A single-shard gather keeps every candidate and
// charges no comparisons — the local skyline is the global one — but it
// goes through the same ordering and tracing as an N-shard gather where
// only one shard is non-empty, so the merged report is identical either
// way.
//
// With a tracer attached, one KindShardMerge event is recorded per
// non-empty fold step (shard id, candidates in, survivors after, and the
// comparisons charged), labeled with strategy at the coordinator clock's
// current virtual time.
func Merge(kern *preference.Kernel, byShard [][]Candidate, clock *metrics.Clock, tr trace.Tracer, strategy string, query int) ([]Candidate, MergeStats) {
	var st MergeStats
	if len(byShard) == 1 {
		out := byShard[0]
		st.CandsIn, st.CandsOut = len(out), len(out)
		if len(out) > 0 {
			traceMergeFold(tr, clock, strategy, query, 0, len(out), len(out), 0)
		}
		sortMerged(out)
		return out, st
	}
	win := skyline.NewWindow[Candidate](kern.Sub(), clock)
	for shard, cands := range byShard {
		if len(cands) == 0 {
			continue
		}
		st.CandsIn += len(cands)
		before := win.Cmps
		for _, c := range cands {
			win.Insert(c.Out, c)
		}
		traceMergeFold(tr, clock, strategy, query, shard, len(cands), len(win.Items()), win.Cmps-before)
	}
	survivors := win.Items()
	sortMerged(survivors)
	st.CandsOut, st.Cmps = len(survivors), win.Cmps
	return survivors, st
}

// sortMerged orders one query's merge survivors by (virtual time, shard
// id, rid, tid) — the deterministic delivery order of a merged report.
func sortMerged(cs []Candidate) {
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
		return a.TID < b.TID
	})
}

// traceMergeFold records one fold step's KindShardMerge event.
func traceMergeFold(tr trace.Tracer, clock *metrics.Clock, strategy string, query, shard, in, out int, cmps int64) {
	if tr == nil {
		return
	}
	ev := trace.New(trace.KindShardMerge)
	ev.Strategy = strategy
	ev.T = clock.Now() / metrics.VirtualSecond
	ev.Query = query
	ev.Shard = shard
	ev.CandsIn = in
	ev.CandsOut = out
	ev.Count = int(cmps)
	tr.Trace(ev)
}
