package core

import (
	"fmt"
	"strings"

	"caqe/internal/region"
	"caqe/internal/skycube"
)

// PlanExplain is a structured description of the derived shared plan,
// output space and executor shape, for diagnostics, tooling and tests.
// The JSON form is what cmd/caqe -explain -json emits.
type PlanExplain struct {
	// Cuboid structure.
	Queries         int            `json:"queries"`
	CuboidSubspaces int            `json:"cuboidSubspaces"`
	SkycubeSize     int            `json:"skycubeSize"`     // subspaces serving ≥ 1 query before min-max reduction
	FullSkycubeSize int            `json:"fullSkycubeSize"` // 2^d - 1 over the workload's union of dimensions
	Levels          []ExplainLevel `json:"levels"`

	// The join-group filter: rows kept per key column of each relation (a
	// relation the filter is off for keeps every row), and the comparisons
	// that decided it.
	RKept      []int `json:"rKept"`
	TKept      []int `json:"tKept"`
	FilterCmps int64 `json:"filterCmps"`

	// Input partitioning.
	RCells int `json:"rCells"`
	TCells int `json:"tCells"`

	// Output space.
	CellPairs           int     `json:"cellPairs"`    // R-cells × T-cells
	Regions             int     `json:"regions"`      // surviving regions after the coarse join + skyline
	CoarsePruned        int     `json:"coarsePruned"` // cell pairs discarded before tuple-level processing
	AvgQueriesPerRegion float64 `json:"avgQueriesPerRegion"`

	// Operators is the executor's shape for the engine's options: the
	// scheduler at the root, then the stages of the region step
	// PartitionScan → SignatureJoin → DominanceFilter → Emit.
	Operators OpNode `json:"operators"`
}

// OpNode is one vertex of the executor tree (rendered by explain tooling
// as text or JSON).
type OpNode struct {
	Name     string   `json:"name"`
	Detail   string   `json:"detail,omitempty"`
	Children []OpNode `json:"children,omitempty"`
}

// String renders the tree indented, one operator per line.
func (n OpNode) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n OpNode) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Name)
	if n.Detail != "" {
		b.WriteString("  [" + n.Detail + "]")
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// ExplainLevel summarizes one level of the min-max cuboid.
type ExplainLevel struct {
	Level     int      `json:"level"`
	Subspaces []string `json:"subspaces"` // canonical keys, with the queries each serves
}

// Explain derives the shared plan and output space without executing and
// returns the structured summary.
func (e *Engine) Explain() (*PlanExplain, error) {
	cuboid, space, filter, err := e.plan(nil, false)
	if err != nil {
		return nil, err
	}
	return explain(e, cuboid, space, filter), nil
}

func explain(e *Engine, cuboid *skycube.Cuboid, space *region.Space, filter *joinFilter) *PlanExplain {
	ex := &PlanExplain{
		Queries:         cuboid.NumQueries(),
		CuboidSubspaces: len(cuboid.Nodes),
		SkycubeSize:     cuboid.SkycubeSize(),
		FullSkycubeSize: (1 << uint(len(cuboid.Dims()))) - 1,
		RKept:           filter.kept(0),
		TKept:           filter.kept(1),
		FilterCmps:      filter.cmps,
		RCells:          len(space.RCells),
		TCells:          len(space.TCells),
		Regions:         len(space.Regions),
	}
	byLevel := map[int][]string{}
	maxLevel := 0
	for _, n := range cuboid.Nodes {
		byLevel[n.Level] = append(byLevel[n.Level], fmt.Sprintf("{%s}%s", n.Key(), n.QServe))
		if n.Level > maxLevel {
			maxLevel = n.Level
		}
	}
	for lvl := 0; lvl <= maxLevel; lvl++ {
		ex.Levels = append(ex.Levels, ExplainLevel{Level: lvl, Subspaces: byLevel[lvl]})
	}
	if len(space.Regions) > 0 {
		total := 0
		for _, r := range space.Regions {
			total += r.Alive.Count()
		}
		ex.AvgQueriesPerRegion = float64(total) / float64(len(space.Regions))
	}
	ex.CellPairs = ex.RCells * ex.TCells
	ex.CoarsePruned = ex.CellPairs - ex.Regions
	ex.Operators = e.OperatorTree()
	return ex
}

// OperatorTree returns the executor's shape for the engine's options
// without deriving the plan: the scheduler that picks regions, then the
// stages of processRegion nested in the order a region passes them.
func (e *Engine) OperatorTree() OpNode {
	pop, feedback := "pop max-CSM root region", "Eq. 11 feedback"
	if e.opt.DisableContractBenefit {
		pop = "pop max-count root region (count-driven, no contract benefit)"
	}
	if !e.opt.feedback() {
		feedback = "no feedback"
	}
	root := OpNode{
		Name:   "CSMScheduler",
		Detail: "Algorithm 1: " + pop + ", lazy score refresh, " + feedback,
	}
	if e.opt.DataOrderScheduling {
		root = OpNode{
			Name:   "DataOrderScheduler",
			Detail: "blind pipeline order (S-JFSL): regions in construction order, no contract scheduling",
		}
	}
	dom := "shared skycube insert + dominated-region discard"
	if e.opt.DataOrderScheduling {
		dom = "shared skycube insert; region discard disabled"
	}
	stages := []OpNode{
		root,
		{Name: opNamePartitionScan, Detail: fmt.Sprintf("region → k-d cell pair, %d join condition(s)", len(e.w.JoinConds))},
		{Name: opNameSignatureJoin, Detail: "JC mask test + nested-loop join"},
		{Name: opNameDominanceFilter, Detail: dom},
		{Name: opNameEmit, Detail: "frontier refresh + safety vet, progressive emission of final results"},
	}
	for i := len(stages) - 1; i > 0; i-- {
		stages[i-1].Children = []OpNode{stages[i]}
	}
	return stages[0]
}

// String renders the explanation for terminals.
func (ex *PlanExplain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shared min-max cuboid: %d subspaces (pruned skycube %d, full skycube %d) for %d queries\n",
		ex.CuboidSubspaces, ex.SkycubeSize, ex.FullSkycubeSize, ex.Queries)
	for _, lvl := range ex.Levels {
		fmt.Fprintf(&b, "  level %d: %s\n", lvl.Level, strings.Join(lvl.Subspaces, "  "))
	}
	fmt.Fprintf(&b, "join-group filter: rows kept per key column R %v, T %v (%d comparisons)\n",
		ex.RKept, ex.TKept, ex.FilterCmps)
	fmt.Fprintf(&b, "output space: %d regions over %d×%d cells (%d cell pairs pruned at coarse level)\n",
		ex.Regions, ex.RCells, ex.TCells, ex.CoarsePruned)
	fmt.Fprintf(&b, "avg queries served per region: %.2f\n", ex.AvgQueriesPerRegion)
	b.WriteString("executor:\n")
	for _, line := range strings.Split(strings.TrimRight(ex.Operators.String(), "\n"), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	return b.String()
}
