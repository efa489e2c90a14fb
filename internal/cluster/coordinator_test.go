package cluster_test

import (
	"context"
	"testing"
	"time"

	"caqe"
	"caqe/internal/cluster"
)

// openTestCluster partitions the standard pair across N in-process shard
// sessions and returns a coordinator over them.
func openTestCluster(t *testing.T, shards int) (*cluster.Coordinator, *caqe.Workload, *caqe.Relation, *caqe.Relation) {
	t.Helper()
	w := testWorkload()
	r, tt, err := caqe.GeneratePair(240, 3, caqe.AntiCorrelated, []float64{0.05, 0.05}, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cluster.NewShardMap(shards, cluster.PartitionRange)
	if err != nil {
		t.Fatal(err)
	}
	conns, err := cluster.NewInProcShards(cluster.InProcConfig{
		Map: m, R: r, T: tt,
		JoinConds: w.JoinConds, OutDims: w.OutDims,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Conns: conns, RIDs: m.Table(r.Len())})
	if err != nil {
		t.Fatal(err)
	}
	return coord, w, r, tt
}

// testSpecs mirrors testWorkload's queries in wire form, one per contract
// class.
func testSpecs() []cluster.QuerySpec {
	return []cluster.QuerySpec{
		{Name: "Q1", JC: 0, Pref: []int{0, 1}, Priority: 0.9, Contract: cluster.ContractSpec{Class: "deadline", Deadline: 40}},
		{Name: "Q2", JC: 0, Pref: []int{0, 2}, Priority: 0.7, Contract: cluster.ContractSpec{Class: "logdecay"}},
		{Name: "Q3", JC: 1, Pref: []int{1, 2}, Priority: 0.5, Contract: cluster.ContractSpec{Class: "softdeadline", Deadline: 25}},
		{Name: "Q4", JC: 0, Pref: []int{0, 1, 2}, Priority: 0.4, Contract: cluster.ContractSpec{Class: "ratequota", Frac: 0.1, Interval: 10}},
		{Name: "Q5", JC: 1, Pref: []int{2}, Priority: 0.3, Contract: cluster.ContractSpec{Class: "hybrid", Frac: 0.1, Interval: 10}},
	}
}

// TestCoordinatorInProcExact submits every contract class through a
// three-shard in-process coordinator and checks each merged result set is
// exactly the unsharded batch result set.
func TestCoordinatorInProcExact(t *testing.T) {
	coord, w, r, tt := openTestCluster(t, 3)
	defer coord.Close()
	ref, err := caqe.Run(w, r, tt)
	if err != nil {
		t.Fatal(err)
	}

	specs := testSpecs()
	handles := make([]*cluster.Handle, len(specs))
	for i, spec := range specs {
		h, err := coord.Submit(spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.Name, err)
		}
		handles[i] = h
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for qi, h := range handles {
		if err := h.Wait(ctx); err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if h.State() != "done" {
			t.Fatalf("query %d state %s", qi, h.State())
		}
		results, mst, failed := h.Results()
		if len(failed) != 0 {
			t.Fatalf("query %d: unexpected failed shards %v", qi, failed)
		}
		want := ref.ResultSet(qi)
		if len(results) != len(want) {
			t.Fatalf("query %d: %d merged results, want %d", qi, len(results), len(want))
		}
		got := make(map[[2]int]bool, len(results))
		for _, c := range results {
			if c.Query != h.ID() {
				t.Fatalf("query %d: emission carries id %d", qi, c.Query)
			}
			got[[2]int{c.RID, c.TID}] = true
		}
		for _, k := range want {
			if !got[[2]int{k.RID, k.TID}] {
				t.Fatalf("query %d: missing result %v", qi, k)
			}
		}
		if mst.CandsOut != len(results) {
			t.Fatalf("query %d: merge stats %d out, %d results", qi, mst.CandsOut, len(results))
		}
		// Deterministic delivery order.
		for i := 1; i < len(results); i++ {
			a, b := results[i-1], results[i]
			if a.Time > b.Time {
				t.Fatalf("query %d: results out of time order at %d", qi, i)
			}
			if a.Time == b.Time && (a.Shard > b.Shard || (a.Shard == b.Shard && a.RID > b.RID)) {
				t.Fatalf("query %d: deterministic (time, shard, rid) order violated at %d", qi, i)
			}
		}
	}

	st := coord.Stats()
	if st.Submitted != len(specs) || st.Open != 0 || st.Partials != 0 {
		t.Fatalf("stats: %+v", st)
	}
	for _, ss := range st.Shards {
		if ss.Scattered != int64(len(specs)) {
			t.Fatalf("shard %d scattered %d, want %d", ss.Shard, ss.Scattered, len(specs))
		}
		if ss.Failures != 0 {
			t.Fatalf("shard %d reports %d failures", ss.Shard, ss.Failures)
		}
	}
	if st.MergeCmps == 0 || st.Counters.SkylineCmps != st.MergeCmps {
		t.Fatalf("merge charge accounting: cmps=%d counters=%+v", st.MergeCmps, st.Counters)
	}
}

// TestCoordinatorCancel propagates cancellation to every shard leg and
// still completes the gather with a cancelled state.
func TestCoordinatorCancel(t *testing.T) {
	coord, _, _, _ := openTestCluster(t, 2)
	defer coord.Close()
	h, err := coord.Submit(testSpecs()[1])
	if err != nil {
		t.Fatal(err)
	}
	h.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if h.State() != "cancelled" {
		t.Fatalf("state %s, want cancelled", h.State())
	}
}

// TestCoordinatorClosed rejects submissions after Close and drains
// in-flight work first.
func TestCoordinatorClosed(t *testing.T) {
	coord, _, _, _ := openTestCluster(t, 2)
	h, err := coord.Submit(testSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Close returned with gather still in flight")
	}
	if _, err := coord.Submit(testSpecs()[1]); err != cluster.ErrCoordinatorClosed {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestCoordinatorBadSpec surfaces contract validation before scattering.
func TestCoordinatorBadSpec(t *testing.T) {
	coord, _, _, _ := openTestCluster(t, 2)
	defer coord.Close()
	if _, err := coord.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}, Contract: cluster.ContractSpec{Class: "bogus"}}); err == nil {
		t.Fatal("expected contract error")
	}
	if _, err := coord.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}, Contract: cluster.ContractSpec{Class: "deadline"}}); err == nil {
		t.Fatal("expected deadline error")
	}
}
