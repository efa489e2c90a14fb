// Package bench regenerates every figure of the paper's experimental study
// (§7): the contract-satisfaction comparisons of Figure 9, the CPU/memory/
// time statistics of Figure 10, and the workload-size scaling of Figure 11.
//
// Two substitutions relative to the paper's setup are calibrated here (see
// DESIGN.md §5): measurements use the deterministic virtual clock, and
// contract time parameters — which the paper fixes in wall-clock seconds
// per distribution (10 s correlated, 40 s independent, 30 min
// anti-correlated) — are derived from a reference run so they sit in the
// same position relative to total execution time at any data scale:
// t_C1 = t_C3 = half the shared-plan pass, and the C4/C5 interval is a
// tenth of it.
package bench

import (
	"fmt"
	"math"
	"strings"

	"caqe/internal/baseline"
	"caqe/internal/contract"
	"caqe/internal/datagen"
	"caqe/internal/run"
	"caqe/internal/trace"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// Config scales the experiments. The defaults target seconds-per-run on a
// laptop while preserving the paper's relative shapes; raise N toward the
// paper's 500K with the -n flag of cmd/caqe-bench.
type Config struct {
	N              int     // rows per relation (paper: 500K)
	Dims           int     // output dimensionality d (paper: 4 for the headline)
	NumQueries     int     // |S_Q| (paper: 11)
	Selectivity    float64 // equi-join selectivity σ
	Seed           int64   // dataset seed
	TargetCells    int     // quad-tree leaves per relation
	GridResolution int     // output grid resolution

	// Tracer, when set, receives the structured execution trace of every
	// measured strategy run. Calibration passes stay untraced so the stream
	// holds exactly the runs behind the reported numbers.
	Tracer trace.Tracer
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		N:              1200,
		Dims:           4,
		NumQueries:     11,
		Selectivity:    0.08,
		Seed:           2014,
		TargetCells:    24,
		GridResolution: 64,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.N <= 0 {
		c.N = d.N
	}
	if c.Dims <= 0 {
		c.Dims = d.Dims
	}
	if c.NumQueries <= 0 {
		c.NumQueries = d.NumQueries
	}
	if c.Selectivity <= 0 {
		c.Selectivity = d.Selectivity
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.TargetCells <= 0 {
		c.TargetCells = d.TargetCells
	}
	if c.GridResolution <= 0 {
		c.GridResolution = d.GridResolution
	}
	return c
}

func (c Config) baselineOptions() baseline.Options {
	return baseline.Options{
		TargetCells: c.TargetCells, GridResolution: c.GridResolution,
		Tracer: c.Tracer,
	}
}

// ContractClasses lists the Table 2 contract classes in paper order.
var ContractClasses = []string{"C1", "C2", "C3", "C4", "C5"}

// StrategyNames lists the compared techniques in paper order.
var StrategyNames = []string{"CAQE", "S-JFSL", "JFSL", "ProgXe+", "SSMJ"}

// Table is a printable result grid: one row per sweep value, one column per
// strategy (or metric).
type Table struct {
	Title  string
	Note   string
	Rows   []string
	Cols   []string
	Values [][]float64 // [row][col]
	Format string      // value format, default "%8.3f"
}

// String renders the table as aligned text.
func (t *Table) String() string {
	format := t.Format
	if format == "" {
		format = "%8.3f"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "   %s\n", t.Note)
	}
	wid := 10
	for _, r := range t.Rows {
		if len(r) > wid {
			wid = len(r)
		}
	}
	fmt.Fprintf(&b, "%-*s", wid+2, "")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%10s", c)
	}
	b.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", wid+2, r)
		for j := range t.Cols {
			fmt.Fprintf(&b, "  "+format, t.Values[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// dataset builds the benchmark relation pair for a distribution.
func (c Config) dataset(dist datagen.Distribution) (*tuple.Relation, *tuple.Relation, error) {
	return datagen.Pair(c.N, c.Dims, dist, []float64{c.Selectivity}, c.Seed)
}

// buildWorkload creates the benchmark workload for a contract class with
// the §7.2 priority assignment and calibrated contract parameters.
func (c Config) buildWorkload(class string, tRef float64) (*workload.Workload, error) {
	return workload.Benchmark(workload.BenchmarkConfig{
		NumQueries:  c.NumQueries,
		Dims:        c.Dims,
		Priority:    workload.PriorityModeFor(class),
		NewContract: contractFactory(class, tRef),
	})
}

// contractFactory returns the per-query contract constructor for a class,
// with time parameters scaled to the reference duration tRef (virtual
// seconds of one blind shared-plan pass over the workload): the C1/C3
// deadline is three quarters of it — reachable for a well-ordered shared
// progressive execution, mostly out of reach for unshared or blocking
// processing — and the C4/C5 interval is a tenth. This mirrors the paper's
// per-distribution absolute deadlines (10 s correlated … 30 min
// anti-correlated), which likewise sit inside the shared execution's span.
func contractFactory(class string, tRef float64) func(i int) contract.Contract {
	switch class {
	case "C1":
		return func(int) contract.Contract { return contract.C1(0.75 * tRef) }
	case "C2":
		return func(int) contract.Contract { return contract.C2() }
	case "C3":
		return func(int) contract.Contract { return contract.C3(0.75 * tRef) }
	case "C4":
		return func(int) contract.Contract { return contract.C4(0.1, tRef/10) }
	case "C5":
		return func(int) contract.Contract { return contract.C5(0.1, tRef/10) }
	}
	panic(fmt.Sprintf("bench: unknown contract class %q", class))
}

// calibrate measures the reference duration tRef: the virtual end time of a
// blind shared-plan pass (S-JFSL) under a never-expiring contract. Harder
// datasets therefore get proportionally longer deadlines, exactly like the
// paper's per-distribution wall-clock parameters.
func (c Config) calibrate(r, t *tuple.Relation) (float64, error) {
	w, err := workload.Benchmark(workload.BenchmarkConfig{
		NumQueries: c.NumQueries,
		Dims:       c.Dims,
		Priority:   workload.UniformPriority,
		NewContract: func(int) contract.Contract {
			return contract.C1(math.Inf(1))
		},
	})
	if err != nil {
		return 0, err
	}
	opt := c.baselineOptions()
	opt.Tracer = nil // calibration is not a measured run
	rep, err := baseline.SJFSL(w, r, t, nil, opt)
	if err != nil {
		return 0, err
	}
	return rep.EndTime, nil
}

// runAll executes every strategy on one workload, returning reports keyed
// by strategy name.
func (c Config) runAll(w *workload.Workload, r, t *tuple.Relation, totals []int) (map[string]*run.Report, error) {
	out := make(map[string]*run.Report, len(StrategyNames))
	for _, s := range baseline.All(c.baselineOptions()) {
		rep, err := s.Run(w, r, t, totals)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", s.Name, err)
		}
		out[s.Name] = rep
	}
	return out, nil
}

// baselineGroundTruth wraps baseline.GroundTruth for the figure runners.
func baselineGroundTruth(w *workload.Workload, r, t *tuple.Relation) ([][]run.ResultKey, []int, error) {
	results, totals, err := baseline.GroundTruth(w, r, t)
	if err != nil {
		return nil, nil, err
	}
	keys := make([][]run.ResultKey, len(results))
	for qi, rs := range results {
		for _, jr := range rs {
			keys[qi] = append(keys[qi], run.ResultKey{RID: jr.RID, TID: jr.TID})
		}
	}
	return keys, totals, nil
}
