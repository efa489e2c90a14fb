package core

import (
	"testing"

	"caqe/internal/datagen"
	"caqe/internal/partition"
	"caqe/internal/region"
	"caqe/internal/run"
	"caqe/internal/skycube"
	"caqe/internal/workload"
)

// newPipelineTestState wires a real state (plan, space, shared skyline)
// without running it, so tests can drive the operator pipeline one region
// at a time.
func newPipelineTestState(t *testing.T, opt Options) *state {
	t.Helper()
	w := testWorkload(4, 3, workload.UniformPriority, c3s)
	r, tt := testPair(t, 200, 3, datagen.Independent, 0.04, 31)
	eng, err := New(w, r, tt, opt)
	if err != nil {
		t.Fatal(err)
	}
	clock := eng.opt.NewClock()
	rcells, err := partition.Partition(eng.r, partition.DefaultOptions(eng.r.Len(), eng.opt.TargetCells))
	if err != nil {
		t.Fatal(err)
	}
	tcells, err := partition.Partition(eng.t, partition.DefaultOptions(eng.t.Len(), eng.opt.TargetCells))
	if err != nil {
		t.Fatal(err)
	}
	space, err := region.BuildSpace(eng.w, rcells, tcells,
		region.Options{GridResolution: eng.opt.GridResolution}, clock)
	if err != nil {
		t.Fatal(err)
	}
	cuboid, err := skycube.BuildCuboid(eng.w.Prefs())
	if err != nil {
		t.Fatal(err)
	}
	return newState(eng, clock, space, skycube.NewSharedSkyline(cuboid, clock), run.NewReport("CAQE", w, nil))
}

// firstLiveRegion returns the first unprocessed region still serving a
// query.
func firstLiveRegion(t *testing.T, st *state) int {
	t.Helper()
	for ri := range st.regions {
		if !st.processed[ri] && st.regions[ri].Alive != 0 {
			return ri
		}
	}
	t.Fatal("no live region in test space")
	return -1
}

// TestBuildPipelineShape pins the operator chain: four stages in handoff
// order, the dependency-release hook wired only under CSM scheduling, and
// the explain tree rooted at the matching scheduler.
func TestBuildPipelineShape(t *testing.T) {
	csm := newPipelineTestState(t, Options{TargetCells: 6, Workers: 1})
	order := []string{opNamePartitionScan, opNameSignatureJoin, opNameDominanceFilter, opNameEmit}
	ops := csm.pipe.Operators()
	if len(ops) != len(order) {
		t.Fatalf("pipeline has %d operators, want %d", len(ops), len(order))
	}
	for i, o := range ops {
		if o.Name() != order[i] {
			t.Errorf("operator %d is %s, want %s", i, o.Name(), order[i])
		}
		if o.Detail() == "" {
			t.Errorf("operator %s has no detail", o.Name())
		}
	}
	if ops[2].(*domOp).retire == nil {
		t.Error("CSM pipeline must wire the dependency-release hook")
	}
	if root := csm.operatorTree(); root.Name != "CSMScheduler" {
		t.Errorf("CSM tree rooted at %s", root.Name)
	}

	do := newPipelineTestState(t, Options{TargetCells: 6, Workers: 1, DataOrderScheduling: true})
	if do.pipe.Operators()[2].(*domOp).retire != nil {
		t.Error("data-order pipeline must not release dependency edges")
	}
	root := do.operatorTree()
	if root.Name != "DataOrderScheduler" {
		t.Errorf("data-order tree rooted at %s", root.Name)
	}
	if len(root.Children) != 1 || root.Children[0].Name != opNamePartitionScan {
		t.Errorf("tree child %+v", root.Children)
	}
	depth := 0
	for n := &root; len(n.Children) > 0; n = &n.Children[0] {
		depth++
	}
	if depth != 4 {
		t.Errorf("tree depth %d, want 4 (scheduler + operator chain)", depth)
	}
}

// TestPipelineProcessRetiresRegion drives one region through the chain and
// checks the per-stage effects: the scan retires the region and charges the
// region-done work, the join marks its conditions joined, and the dominance
// stage materializes payloads into the shared skyline.
func TestPipelineProcessRetiresRegion(t *testing.T) {
	st := newPipelineTestState(t, Options{TargetCells: 6, Workers: 1})
	st.initQueue()
	ri := firstLiveRegion(t, st)
	before := st.clock.Counters()
	st.pipe.Process(ri)
	after := st.clock.Counters()
	if !st.processed[ri] {
		t.Error("region not retired by PartitionScan close")
	}
	if after.RegionsDone != before.RegionsDone+1 {
		t.Errorf("RegionsDone %d → %d, want +1", before.RegionsDone, after.RegionsDone)
	}
	joined := false
	for j := range st.w.JoinConds {
		joined = joined || st.joinComplete(st.regions[ri], j)
	}
	if !joined {
		t.Error("SignatureJoin did not record the joined conditions")
	}
	if after.JoinProbes == before.JoinProbes {
		t.Error("no join probes charged")
	}
	if len(st.payloads) == 0 {
		t.Error("DominanceFilter materialized no payloads")
	}
}

// TestSignatureJoinSkipsJoinedConditions pins the join-cursor reopening
// guard: a region whose conditions are all marked joined (the state a late
// admission revives) must flow through the pipeline without producing a
// single probe or payload.
func TestSignatureJoinSkipsJoinedConditions(t *testing.T) {
	st := newPipelineTestState(t, Options{TargetCells: 6, Workers: 1})
	st.initQueue()
	ri := firstLiveRegion(t, st)
	for j := range st.w.JoinConds {
		r := st.regions[ri]
		*st.cursor(ri, j) = joinCursor{len(r.RCell.Tuples), len(r.TCell.Tuples)}
	}
	before := st.clock.Counters()
	st.pipe.Process(ri)
	after := st.clock.Counters()
	if after.JoinProbes != before.JoinProbes {
		t.Errorf("probes charged on a fully-joined region: %d → %d", before.JoinProbes, after.JoinProbes)
	}
	if len(st.payloads) != 0 {
		t.Errorf("%d payloads materialized from a fully-joined region", len(st.payloads))
	}
	if !st.processed[ri] {
		t.Error("region must still retire")
	}
}
