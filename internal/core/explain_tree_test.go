package core_test

import (
	"encoding/json"
	"testing"

	"caqe/internal/baseline"
	"caqe/internal/contract"
	"caqe/internal/core"
	"caqe/internal/datagen"
	"caqe/internal/workload"
)

// TestExplainOperatorTree pins the executor shape the explanation carries:
// the scheduler at the root (per the engine's options: the ProgXe+ row,
// taken from the strategy table, ranks by count with no feedback), then the
// four-stage operator chain — the exact text rendering of the tree, the
// discard detail that follows DataOrderScheduling, and a JSON round trip,
// the -explain -json contract.
func TestExplainOperatorTree(t *testing.T) {
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: 4, Dims: 3, Priority: workload.UniformPriority,
		NewContract: func(int) contract.Contract { return contract.C3(10) },
	})
	r, tt, err := datagen.Pair(100, 3, datagen.Independent, []float64{0.05}, 67)
	if err != nil {
		t.Fatal(err)
	}
	mustEngine := func(opt core.Options) *core.Engine {
		t.Helper()
		eng, err := core.New(w, r, tt, opt)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	progxe, err := baseline.Find("ProgXe+", baseline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	progxeOpt, _ := progxe.Engine()
	for _, tc := range []struct {
		opt          core.Options
		root, detail string
	}{
		{core.Options{}, "CSMScheduler", "Algorithm 1: pop max-CSM root region, lazy score refresh, Eq. 11 feedback"},
		{core.Options{DataOrderScheduling: true}, "DataOrderScheduler", "blind pipeline order (S-JFSL): regions in construction order, no contract scheduling"},
		{progxeOpt, "CSMScheduler", "Algorithm 1: pop max-count root region (count-driven, no contract benefit), lazy score refresh, no feedback"},
	} {
		node := mustEngine(tc.opt).OperatorTree()
		if node.Name != tc.root || node.Detail != tc.detail {
			t.Errorf("root = %s [%s], want %s [%s]", node.Name, node.Detail, tc.root, tc.detail)
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

	eng := mustEngine(core.Options{TargetCells: 4})
	const rendered = `CSMScheduler  [Algorithm 1: pop max-CSM root region, lazy score refresh, Eq. 11 feedback]
  PartitionScan  [region → k-d cell pair, 1 join condition(s)]
    SignatureJoin  [JC mask test + nested-loop join]
      DominanceFilter  [shared skycube insert + dominated-region discard]
        Emit  [frontier refresh + safety vet, progressive emission of final results]
`
	if got := eng.OperatorTree().String(); got != rendered {
		t.Errorf("tree renders as\n%swant\n%s", got, rendered)
	}
	noDiscard := mustEngine(core.Options{DataOrderScheduling: true}).OperatorTree()
	if got := noDiscard.Children[0].Children[0].Children[0].Detail; got != "shared skycube insert; region discard disabled" {
		t.Errorf("DominanceFilter detail under DataOrderScheduling = %q", got)
	}
	ex, err := eng.Explain()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	var back core.PlanExplain
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Operators.Name != "CSMScheduler" || back.Regions != ex.Regions {
		t.Fatalf("JSON round trip lost structure: %+v", back.Operators)
	}
}
