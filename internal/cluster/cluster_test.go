package cluster_test

import (
	"testing"

	"caqe"
	"caqe/internal/cluster"
	"caqe/internal/run"
	"caqe/internal/trace"
)

// testWorkload covers every contract class over two join conditions — the
// same shape the root determinism suite uses, so the sharded matrix
// exercises both join paths of every strategy.
func testWorkload() *caqe.Workload {
	return &caqe.Workload{
		JoinConds: []caqe.EquiJoin{
			{Name: "JC1", LeftKey: 0, RightKey: 0},
			{Name: "JC2", LeftKey: 1, RightKey: 1},
		},
		OutDims: []caqe.MapFunc{
			caqe.SumDim("x0", 0),
			caqe.SumDim("x1", 1),
			caqe.SumDim("x2", 2),
		},
		Queries: []caqe.Query{
			{Name: "Q1", JC: 0, Pref: caqe.Dims(0, 1), Priority: 0.9, Contract: caqe.Deadline(40)},
			{Name: "Q2", JC: 0, Pref: caqe.Dims(0, 2), Priority: 0.7, Contract: caqe.LogDecay()},
			{Name: "Q3", JC: 1, Pref: caqe.Dims(1, 2), Priority: 0.5, Contract: caqe.SoftDeadline(25)},
			{Name: "Q4", JC: 0, Pref: caqe.Dims(0, 1, 2), Priority: 0.4, Contract: caqe.RateQuota(0.1, 10)},
			{Name: "Q5", JC: 1, Pref: caqe.Dims(2), Priority: 0.3, Contract: caqe.Hybrid(0.1, 10)},
		},
	}
}

var testDists = []struct {
	name string
	d    caqe.Distribution
}{
	{"correlated", caqe.Correlated},
	{"independent", caqe.Independent},
	{"anticorrelated", caqe.AntiCorrelated},
}

// TestShardMapInvariants checks that every topology partitions the row-ID
// space into contiguous blocks disjointly and exhaustively, that ShardOf
// agrees with Table, and that Partition renumbers densely against the
// translation table.
func TestShardMapInvariants(t *testing.T) {
	r, _, err := caqe.GeneratePair(97, 3, caqe.Independent, []float64{0.1, 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := 97
	for shards := 1; shards <= 5; shards++ {
		m, err := cluster.NewShardMap(shards, cluster.PartitionRange)
		if err != nil {
			t.Fatal(err)
		}
		table := m.Table(n)
		seen := make(map[int]bool, n)
		for s, rids := range table {
			for local, rid := range rids {
				if seen[rid] {
					t.Fatalf("N=%d: row %d assigned twice", shards, rid)
				}
				seen[rid] = true
				if got := m.ShardOf(rid, n); got != s {
					t.Fatalf("N=%d: ShardOf(%d)=%d but table says %d", shards, rid, got, s)
				}
				if local > 0 && rids[local-1]+1 != rid {
					t.Fatalf("N=%d: shard %d not contiguous at %d", shards, s, rid)
				}
			}
		}
		if len(seen) != n {
			t.Fatalf("N=%d: %d of %d rows assigned", shards, len(seen), n)
		}
		parts, ptable := m.Partition(r)
		for s, part := range parts {
			if part.Len() != len(ptable[s]) {
				t.Fatalf("N=%d: shard %d has %d rows, table %d", shards, s, part.Len(), len(ptable[s]))
			}
			for local := 0; local < part.Len(); local++ {
				if part.At(local).ID != local {
					t.Fatalf("N=%d: shard %d row %d has non-dense id %d", shards, s, local, part.At(local).ID)
				}
				global := ptable[s][local]
				want := r.At(global)
				if &part.At(local).Attrs[0] != &want.Attrs[0] {
					t.Fatalf("N=%d: shard %d row %d does not share attrs with global %d", shards, s, local, global)
				}
			}
		}
	}
	if _, err := cluster.NewShardMap(0, cluster.PartitionRange); err == nil {
		t.Fatal("expected error for 0 shards")
	}
	if _, err := cluster.NewShardMap(2, ""); err != nil {
		t.Fatalf("empty strategy: %v, want range", err)
	}
	for _, bad := range []cluster.Strategy{"hash", "zigzag"} {
		if _, err := cluster.NewShardMap(2, bad); err == nil {
			t.Fatalf("expected error for strategy %q", bad)
		}
	}
}

// TestShardedRunMatchesUnsharded is the subsystem's core property: for
// every distribution × N ∈ {1,2,3,4}, (a) the union of local skylines is
// a superset of the global skyline, and (b) the coordinator's
// dominance-merge pass restores exact result-set equality with an
// unsharded CAQE run. Run with -race this also shakes the concurrent
// scatter.
func TestShardedRunMatchesUnsharded(t *testing.T) {
	w := testWorkload()
	for _, dist := range testDists {
		t.Run(dist.name, func(t *testing.T) {
			r, tt, err := caqe.GeneratePair(240, 3, dist.d, []float64{0.05, 0.05}, 7)
			if err != nil {
				t.Fatal(err)
			}
			t.Run("CAQE", func(t *testing.T) {
				ref, err := caqe.Run(w, r, tt)
				if err != nil {
					t.Fatal(err)
				}
				for shards := 1; shards <= 4; shards++ {
					rep, stats, err := cluster.Run(w, r, tt, cluster.Options{Shards: shards})
					if err != nil {
						t.Fatalf("N=%d: %v", shards, err)
					}
					if ok, diff := run.SameResults(ref, rep); !ok {
						t.Fatalf("N=%d: merged result set differs: %s", shards, diff)
					}
					for qi := range w.Queries {
						ms := stats.Merge[qi]
						if ms.CandsIn < len(ref.PerQuery[qi]) {
							t.Fatalf("N=%d query %d: union of local skylines has %d candidates, global skyline %d — superset property violated",
								shards, qi, ms.CandsIn, len(ref.PerQuery[qi]))
						}
						if ms.CandsOut != len(rep.PerQuery[qi]) {
							t.Fatalf("N=%d query %d: merge reports %d survivors, report has %d",
								shards, qi, ms.CandsOut, len(rep.PerQuery[qi]))
						}
					}
					if shards == 1 && stats.MergeCmps != 0 {
						t.Fatalf("N=1 charged %d merge comparisons", stats.MergeCmps)
					}
				}
			})
		})
	}
}

// TestUnionOfLocalSkylinesSuperset verifies the superset property directly
// from independently executed shard legs (not via Run's own accounting):
// every global-skyline member appears in some shard's local skyline of a
// range-partitioned R.
func TestUnionOfLocalSkylinesSuperset(t *testing.T) {
	w := testWorkload()
	t.Run(string(cluster.PartitionRange), func(t *testing.T) {
		r, tt, err := caqe.GeneratePair(240, 3, caqe.AntiCorrelated, []float64{0.05, 0.05}, 7)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := caqe.Run(w, r, tt)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cluster.NewShardMap(3, cluster.PartitionRange)
		if err != nil {
			t.Fatal(err)
		}
		parts, table := m.Partition(r)
		type key struct{ q, rid, tid int }
		union := make(map[key]bool)
		for s, part := range parts {
			local, err := caqe.Run(w, part, tt)
			if err != nil {
				t.Fatalf("shard %d: %v", s, err)
			}
			for qi := range w.Queries {
				for _, k := range local.ResultSet(qi) {
					union[key{qi, table[s][k.RID], k.TID}] = true
				}
			}
		}
		for qi := range w.Queries {
			for _, k := range ref.ResultSet(qi) {
				if !union[key{qi, k.RID, k.TID}] {
					t.Fatalf("query %d: global skyline member %v missing from union of local skylines", qi, k)
				}
			}
		}
	})
}

// TestShardedRunTraced checks the coordinator's trace stream: one run
// bracket, shardmerge events that validate, and counters matching the
// merge accounting.
func TestShardedRunTraced(t *testing.T) {
	w := testWorkload()
	r, tt, err := caqe.GeneratePair(240, 3, caqe.Independent, []float64{0.05, 0.05}, 7)
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	rep, stats, err := cluster.Run(w, r, tt, cluster.Options{
		Shards: 3,
		Tracer: traceFunc(func(ev trace.Event) { evs = append(evs, ev) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	var merges, cmps int64
	for _, ev := range evs {
		if err := ev.Validate(); err != nil {
			t.Fatalf("invalid event %+v: %v", ev, err)
		}
		if ev.Kind == trace.KindShardMerge {
			merges++
			cmps += int64(ev.Count)
		}
	}
	if merges == 0 {
		t.Fatal("no shardmerge events traced")
	}
	if cmps != stats.MergeCmps {
		t.Fatalf("traced %d merge comparisons, stats say %d", cmps, stats.MergeCmps)
	}
	if evs[0].Kind != trace.KindStart || evs[len(evs)-1].Kind != trace.KindEnd {
		t.Fatalf("trace not bracketed: first %s last %s", evs[0].Kind, evs[len(evs)-1].Kind)
	}
	if rep.Counters.SkylineCmps < stats.MergeCmps {
		t.Fatalf("report counters (%d skyline cmps) missing merge charges (%d)", rep.Counters.SkylineCmps, stats.MergeCmps)
	}
}

type traceFunc func(trace.Event)

func (f traceFunc) Trace(ev trace.Event) { f(ev) }
