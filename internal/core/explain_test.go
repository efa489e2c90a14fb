package core

import (
	"encoding/json"
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

// TestExplainOperatorTree pins the executor shape the explanation carries:
// the scheduler at the root (per the engine's options), then the four-stage
// operator chain — the exact text rendering of the tree, the detail string
// that follows DisableRegionDiscard, and a JSON round trip, the -explain
// -json contract.
func TestExplainOperatorTree(t *testing.T) {
	w := testWorkload(4, 3, workload.UniformPriority, c3s)
	r, tt := testPair(t, 100, 3, datagen.Independent, 0.05, 67)
	for _, tc := range []struct {
		opt  Options
		root string
	}{
		{Options{}, "CSMScheduler"},
		{Options{DataOrderScheduling: true}, "DataOrderScheduler"},
	} {
		eng, err := New(w, r, tt, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		node := eng.OperatorTree()
		if node.Name != tc.root {
			t.Errorf("root = %s, want %s", node.Name, tc.root)
		}
		names := []string{}
		for n := &node; ; n = &n.Children[0] {
			names = append(names, n.Name)
			if len(n.Children) == 0 {
				break
			}
		}
		want := []string{tc.root, "PartitionScan", "SignatureJoin", "DominanceFilter", "Emit"}
		if len(names) != len(want) {
			t.Fatalf("chain %v, want %v", names, want)
		}
		for i := range want {
			if names[i] != want[i] {
				t.Fatalf("chain %v, want %v", names, want)
			}
		}
	}

	eng, err := New(w, r, tt, Options{TargetCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	const rendered = `CSMScheduler  [Algorithm 1: pop max-CSM root region, lazy score refresh, Eq. 11 feedback]
  PartitionScan  [region → quad-tree cell pair, 1 join condition(s)]
    SignatureJoin  [JC mask test + nested-loop join]
      DominanceFilter  [shared skycube insert + dominated-region discard]
        Emit  [frontier refresh + safety vet, progressive emission of final results]
`
	if got := eng.OperatorTree().String(); got != rendered {
		t.Errorf("tree renders as\n%swant\n%s", got, rendered)
	}
	noDiscard := mustEngine(t, w, r, tt, Options{DisableRegionDiscard: true}).OperatorTree()
	if got := noDiscard.Children[0].Children[0].Children[0].Detail; got != "shared skycube insert; region discard disabled" {
		t.Errorf("DominanceFilter detail under DisableRegionDiscard = %q", got)
	}
	ex, err := eng.Explain()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	var back PlanExplain
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Operators.Name != "CSMScheduler" || back.Regions != ex.Regions {
		t.Fatalf("JSON round trip lost structure: %+v", back.Operators)
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
