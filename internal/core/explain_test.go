package core

import (
	"fmt"
	"strings"
	"testing"

	"caqe/internal/datagen"
	"caqe/internal/workload"
)

func TestExplain(t *testing.T) {
	w := testWorkload(11, 4, workload.UniformPriority, c3s)
	r, tt := testPair(t, 300, 4, datagen.Independent, 0.05, 61)
	eng, err := New(w, r, tt, Options{TargetCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := eng.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Queries != 11 {
		t.Errorf("Queries = %d", ex.Queries)
	}
	if ex.FullSkycubeSize != 15 {
		t.Errorf("full skycube = %d, want 15 (2^4-1)", ex.FullSkycubeSize)
	}
	// With all 11 subsets of size ≥ 2 as preferences, the pruned skycube is
	// the full lattice.
	if ex.SkycubeSize != 15 {
		t.Errorf("pruned skycube = %d", ex.SkycubeSize)
	}
	if ex.CuboidSubspaces <= 0 || ex.CuboidSubspaces > ex.SkycubeSize {
		t.Errorf("cuboid subspaces = %d", ex.CuboidSubspaces)
	}
	if ex.Regions <= 0 {
		t.Errorf("regions = %d", ex.Regions)
	}
	if ex.AvgQueriesPerRegion <= 0 || ex.AvgQueriesPerRegion > 11 {
		t.Errorf("avg queries per region = %g", ex.AvgQueriesPerRegion)
	}
	if len(ex.Levels) == 0 {
		t.Error("no levels")
	}
	s := ex.String()
	for _, want := range []string{"min-max cuboid", "level 0", "regions", "executor:", "CSMScheduler", "PartitionScan"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

// TestExplainFigure6Cuboid renders the Figure 1 workload's plan and checks
// the Figure 6 structure surfaces in the explanation.
func TestExplainFigure6Cuboid(t *testing.T) {
	w := workloadFig1{}.build()
	r, tt := testPair(t, 100, 4, datagen.Independent, 0.05, 63)
	eng, err := New(w, r, tt, Options{TargetCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := eng.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if ex.CuboidSubspaces != 8 {
		t.Fatalf("Figure 6 cuboid has %d subspaces, want 8", ex.CuboidSubspaces)
	}
	if len(ex.Levels) != 3 {
		t.Fatalf("Figure 6 cuboid has %d levels, want 3", len(ex.Levels))
	}
	if len(ex.Levels[0].Subspaces) != 4 || len(ex.Levels[1].Subspaces) != 2 || len(ex.Levels[2].Subspaces) != 2 {
		t.Fatalf("level shape: %v", ex.Levels)
	}
}

// workloadFig1 builds the running workload of the paper's Figure 1:
// P1={d1,d2}, P2={d1,d2,d3}, P3={d2,d3}, P4={d2,d3,d4}.
type workloadFig1 struct{}

func (workloadFig1) build() *workload.Workload {
	w := testWorkload(11, 4, workload.UniformPriority, c3s)
	base := *w
	base.Queries = nil
	add := func(name string, dims ...int) {
		q := w.Queries[0]
		q.Name = name
		q.Pref = nil
		for _, d := range dims {
			q.Pref = append(q.Pref, d)
		}
		base.Queries = append(base.Queries, q)
	}
	add("Q1", 0, 1)
	add("Q2", 0, 1, 2)
	add("Q3", 1, 2)
	add("Q4", 1, 2, 3)
	return &base
}

// TestExplainCountsTheSpace pins what the explanation says about the plan
// of the 11-query workload over GeneratePair(2000, 4, Correlated, [0.1],
// 2014): the rows the join-group filter keeps per key column and its
// comparisons, and the cells, cell pairs and coarse prunes of the space —
// counted over the space's cells, not over the cells some surviving region
// happens to use.
func TestExplainCountsTheSpace(t *testing.T) {
	w := testWorkload(11, 4, workload.UniformPriority, c3s)
	r, tt := testPair(t, 2000, 4, datagen.Correlated, 0.1, 2014)
	ex, err := mustEngine(t, w, r, tt, Options{}).Explain()
	if err != nil {
		t.Fatal(err)
	}
	_, space, _, err := mustEngine(t, w, r, tt, Options{}).plan(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if ex.RCells != len(space.RCells) || ex.TCells != len(space.TCells) {
		t.Errorf("explain counts %d×%d cells, the space holds %d×%d", ex.RCells, ex.TCells, len(space.RCells), len(space.TCells))
	}
	got := fmt.Sprintf("kept R %v T %v, %d comparisons; %d×%d cells, %d pairs, %d regions, %d coarse-pruned",
		ex.RKept, ex.TKept, ex.FilterCmps, ex.RCells, ex.TCells, ex.CellPairs, ex.Regions, ex.CoarsePruned)
	if want := "kept R [43] T [37], 4076 comparisons; 24×24 cells, 576 pairs, 38 regions, 538 coarse-pruned"; got != want {
		t.Errorf("explain reads\n%s\nwant\n%s", got, want)
	}
	if s := ex.String(); !strings.Contains(s, "join-group filter: rows kept per key column R [43], T [37] (4076 comparisons)") {
		t.Errorf("rendering lacks the filter line:\n%s", s)
	}
}
