// Command caqe runs a contract-driven multi-query workload over a synthetic
// benchmark dataset and compares the execution strategies side by side,
// printing per-query satisfaction and the work counters.
//
// Usage:
//
//	caqe [-n rows] [-queries k] [-dims d] [-dist independent|correlated|anti]
//	     [-sel σ] [-contract C1|C2|C3|C4|C5] [-deadline vsec] [-seed s]
//	     [-strategy CAQE|S-JFSL|JFSL|ProgXe+|SSMJ|TimeShared|all] [-v]
//	     [-trace out.jsonl]
//	     [-explain [-json]]
//
// With -v the chosen strategy's emissions are streamed as they happen.
// With -trace the structured execution trace (scheduling decisions,
// emission batches, feedback updates) is written as JSON Lines; inspect it
// with cmd/caqe-trace. With -explain the derived shared plan and the
// executor's operator tree are printed instead of running (the tree follows
// -strategy: S-JFSL shows the data-order scheduler, ProgXe+ the count-driven
// one); -json switches the dump to machine-readable JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"caqe"
	"caqe/internal/baseline"
	"caqe/internal/contract"
	"caqe/internal/core"
	"caqe/internal/datagen"
	"caqe/internal/workload"
)

func main() {
	var (
		n         = flag.Int("n", 1000, "rows per relation")
		queries   = flag.Int("queries", 11, "workload size |S_Q|")
		dims      = flag.Int("dims", 4, "output dimensionality d")
		distName  = flag.String("dist", "independent", "data distribution: independent, correlated, anti")
		sel       = flag.Float64("sel", 0.05, "join selectivity σ")
		class     = flag.String("contract", "C3", "contract class: C1..C5")
		deadline  = flag.Float64("deadline", 100, "deadline / interval scale in virtual seconds (C1, C3, C4, C5)")
		seed      = flag.Int64("seed", 1, "dataset seed")
		strategy  = flag.String("strategy", "all", "strategy to run, or 'all' to compare")
		verbose   = flag.Bool("v", false, "stream emissions (single strategy only)")
		explain   = flag.Bool("explain", false, "print the derived shared plan, output space and operator tree, then exit")
		asJSON    = flag.Bool("json", false, "with -explain: dump the plan as JSON")
		traceFile = flag.String("trace", "", "write the structured execution trace to this JSONL file")
	)
	flag.Parse()

	if err := runCLI(*n, *queries, *dims, *distName, *sel, *class, *deadline, *seed, *strategy, *verbose, *explain, *asJSON, *traceFile); err != nil {
		fmt.Fprintf(os.Stderr, "caqe: %v\n", err)
		os.Exit(1)
	}
}

func runCLI(n, queries, dims int, distName string, sel float64, class string, deadline float64, seed int64, strategy string, verbose, explain, asJSON bool, traceFile string) error {
	dist, err := datagen.ParseDistribution(distName)
	if err != nil {
		return err
	}
	newContract, err := contractFor(class, deadline)
	if err != nil {
		return err
	}
	w, err := workload.Benchmark(workload.BenchmarkConfig{
		NumQueries:  queries,
		Dims:        dims,
		Priority:    workload.PriorityModeFor(class),
		NewContract: newContract,
	})
	if err != nil {
		return err
	}
	r, t, err := datagen.Pair(n, dims, dist, []float64{sel}, seed)
	if err != nil {
		return err
	}
	totals, err := caqe.GroundTruth(w, r, t)
	if err != nil {
		return err
	}
	if explain {
		eng, err := core.New(w, r, t, explainOptions(strategy))
		if err != nil {
			return err
		}
		ex, err := eng.Explain()
		if err != nil {
			return err
		}
		if asJSON {
			data, err := json.MarshalIndent(ex, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(data))
			return nil
		}
		fmt.Printf("workload: %d skyline-over-join queries over %s R,T (N=%d, d=%d, σ=%g), contract %s\n\n",
			len(w.Queries), dist, n, dims, sel, class)
		fmt.Print(ex)
		return nil
	}
	fmt.Printf("workload: %d skyline-over-join queries over %s R,T (N=%d, d=%d, σ=%g), contract %s\n\n",
		len(w.Queries), dist, n, dims, sel, class)

	tracer, flushTrace, err := openTracer(traceFile)
	if err != nil {
		return err
	}
	defer flushTrace()

	if strategy != "all" {
		return runOne(w, r, t, totals, strategy, verbose, tracer)
	}
	fmt.Printf("%-9s %9s %12s %12s %12s %10s\n", "strategy", "avg-sat", "end(vs)", "joinResults", "skylineCmps", "emitted")
	for _, s := range baseline.All(baseline.Options{Tracer: tracer}) {
		rep, err := s.Run(w, r, t, totals)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		c := rep.Counters
		fmt.Printf("%-9s %9.3f %12.1f %12d %12d %10d\n",
			s.Name, rep.AvgSatisfaction(), rep.EndTime, c.JoinResults, c.SkylineCmps, c.TuplesEmitted)
	}
	return nil
}

// explainOptions returns the engine configuration whose executor shape
// -explain should describe: the named strategy's (S-JFSL the shared plan
// driven in data order, ProgXe+ the count-driven scheduler), or the CAQE
// defaults for a strategy that runs no engine and for "all".
func explainOptions(strategy string) core.Options {
	s, err := baseline.Find(strategy, baseline.Options{})
	if err != nil {
		return core.Options{}
	}
	opt, _ := s.Engine()
	return opt
}

// openTracer opens a JSONL trace sink for the given path ("" = tracing
// off). The returned flush both flushes the stream and closes the file.
func openTracer(path string) (caqe.Tracer, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	jw := caqe.NewJSONLTracer(f)
	return jw, func() {
		if err := jw.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "caqe: writing trace: %v\n", err)
		}
		f.Close()
	}, nil
}

func runOne(w *workload.Workload, r, t *caqe.Relation, totals []int, name string, verbose bool, tracer caqe.Tracer) error {
	opts := []caqe.RunOption{caqe.Options{Tracer: tracer}, caqe.WithTotals(totals)}
	if verbose && name == "CAQE" {
		opts = append(opts, caqe.WithOnEmit(func(e caqe.Emission) {
			fmt.Printf("[t=%9.2fs] %-4s R#%-5d T#%-5d %v\n", e.Time, w.Queries[e.Query].Name, e.RID, e.TID, e.Out)
		}))
	}
	rep, err := caqe.RunStrategy(caqe.StrategyName(name), w, r, t, opts...)
	if err != nil {
		return err
	}
	if verbose && name != "CAQE" {
		for qi := range rep.PerQuery {
			for _, e := range rep.PerQuery[qi] {
				fmt.Printf("[t=%9.2fs] %-4s R#%-5d T#%-5d %v\n", e.Time, w.Queries[e.Query].Name, e.RID, e.TID, e.Out)
			}
		}
	}
	fmt.Printf("\n%s finished at %.1f virtual seconds; workload satisfaction %.3f\n",
		rep.Strategy, rep.EndTime, rep.AvgSatisfaction())
	sats := rep.Satisfaction()
	for qi, q := range w.Queries {
		fmt.Printf("  %-4s pref={%s} prio=%.2f (%-6s) %4d results  satisfaction %.3f\n",
			q.Name, q.Pref.Key(), q.Priority, workload.PriorityBand(q.Priority), len(rep.PerQuery[qi]), sats[qi])
	}
	fmt.Printf("work: %s\n", rep.Counters.String())
	return nil
}

func contractFor(class string, scale float64) (func(int) contract.Contract, error) {
	switch class {
	case "C1":
		return func(int) contract.Contract { return contract.C1(scale) }, nil
	case "C2":
		return func(int) contract.Contract { return contract.C2() }, nil
	case "C3":
		return func(int) contract.Contract { return contract.C3(scale) }, nil
	case "C4":
		return func(int) contract.Contract { return contract.C4(0.1, scale/10) }, nil
	case "C5":
		return func(int) contract.Contract { return contract.C5(0.1, scale/10) }, nil
	}
	return nil, fmt.Errorf("unknown contract class %q (want C1..C5)", class)
}
