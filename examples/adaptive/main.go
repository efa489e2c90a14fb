// Adaptive scheduling: a side-by-side look at the three ways the shared
// engine orders its regions — CAQE's contract-driven benefit model with the
// Eq. 11 satisfaction feedback, a count-driven benefit (ProgXe+'s ordering)
// and blind data order (S-JFSL's, which also skips the dependency graph and
// the region discard) — on one deadline-heavy workload, then the unshared
// baselines. Each engine runs on identical input and must produce identical
// results; only the schedule (and therefore satisfaction and work) changes.
//
// Run with:
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"caqe"
	"caqe/internal/baseline"
	"caqe/internal/contract"
	"caqe/internal/core"
	"caqe/internal/datagen"
	"caqe/internal/workload"
)

func main() {
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: 11,
		Dims:       4,
		Priority:   workload.HighDimsHigh,
		NewContract: func(i int) contract.Contract {
			// A hard deadline that only a well-ordered shared execution
			// can serve for every query.
			return contract.C1(100)
		},
	})
	r, t, err := datagen.Pair(800, 4, datagen.Independent, []float64{0.05}, 11)
	if err != nil {
		log.Fatal(err)
	}
	totals, err := caqe.GroundTruth(w, r, t)
	if err != nil {
		log.Fatal(err)
	}

	configs := []struct {
		name string
		opt  core.Options
	}{
		{"CAQE", core.Options{}},
		{"count-driven", core.Options{DisableContractBenefit: true}},
		{"data order (S-JFSL)", core.Options{DataOrderScheduling: true}},
	}

	fmt.Printf("deadline-heavy workload: %d queries, C1(t=100s), N=%d\n\n", len(w.Queries), r.Len())
	fmt.Printf("%-25s %9s %10s %13s %13s\n", "configuration", "avg-sat", "end(vs)", "joinResults", "skylineCmps")
	for _, cfg := range configs {
		eng, err := core.New(w, r, t, cfg.opt)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := eng.Execute(totals)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-25s %9.3f %10.1f %13d %13d\n",
			cfg.name, rep.AvgSatisfaction(), rep.EndTime,
			rep.Counters.JoinResults, rep.Counters.SkylineCmps)
	}

	// For reference: the unshared baselines on the same input.
	fmt.Println()
	for _, s := range baseline.All(baseline.Options{})[2:] {
		rep, err := s.Run(w, r, t, totals)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-25s %9.3f %10.1f %13d %13d\n",
			s.Name, rep.AvgSatisfaction(), rep.EndTime,
			rep.Counters.JoinResults, rep.Counters.SkylineCmps)
	}
}
