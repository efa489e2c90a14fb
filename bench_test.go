// Benchmarks of the comparison strategies and the optimizer toggles at a
// reduced scale, reporting virtual seconds (the determinism reference:
// BenchmarkStrategyCAQE/anti) and satisfaction beside time and allocations.
// The paper's figures are cmd/caqe-bench's tables (bench_results.txt), and
// per-layer timings on real inputs are the traced runs of benchmark/.
//
//	go test -run '^$' -bench=. -benchmem
package caqe_test

import (
	"testing"

	"caqe/internal/baseline"
	"caqe/internal/contract"
	"caqe/internal/core"
	"caqe/internal/datagen"
	"caqe/internal/workload"
)

// Per-strategy benchmarks on the headline workload (Table-2 contract C2),
// one sub-benchmark per data distribution. The anti-correlated sub-benchmark
// is the comparison-bound regime (Figure 10b): skyline dominance tests
// dominate the wall clock there, so it is the headline configuration for
// dominance-kernel and memory-layout optimizations.

func benchStrategy(b *testing.B, name string) {
	dists := []struct {
		name string
		d    datagen.Distribution
	}{
		{"independent", datagen.Independent},
		{"anti", datagen.AntiCorrelated},
	}
	for _, dist := range dists {
		b.Run(dist.name, func(b *testing.B) {
			w := workload.MustBenchmark(workload.BenchmarkConfig{
				NumQueries: 11, Dims: 4, Priority: workload.HighDimsHigh,
				NewContract: func(int) contract.Contract { return contract.C2() },
			})
			r, t, err := datagen.Pair(400, 4, dist.d, []float64{0.05}, 2014)
			if err != nil {
				b.Fatal(err)
			}
			_, totals, err := baseline.GroundTruth(w, r, t)
			if err != nil {
				b.Fatal(err)
			}
			strat, err := baseline.Find(name, baseline.Options{TargetCells: 12, GridResolution: 32})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := strat.Run(w, r, t, totals)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.EndTime, "virtual-sec")
			}
		})
	}
}

func BenchmarkStrategyCAQE(b *testing.B)   { benchStrategy(b, "CAQE") }
func BenchmarkStrategySJFSL(b *testing.B)  { benchStrategy(b, "S-JFSL") }
func BenchmarkStrategyJFSL(b *testing.B)   { benchStrategy(b, "JFSL") }
func BenchmarkStrategyProgXe(b *testing.B) { benchStrategy(b, "ProgXe+") }
func BenchmarkStrategySSMJ(b *testing.B)   { benchStrategy(b, "SSMJ") }

// BenchmarkAblations measures the design-choice toggles DESIGN.md calls
// out: dependency graph, region discard, contract benefit, feedback,
// exact-vs-volume ProgCount.
func BenchmarkAblations(b *testing.B) {
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: 11, Dims: 4, Priority: workload.HighDimsHigh,
		NewContract: func(int) contract.Contract { return contract.C3(20) },
	})
	r, t, err := datagen.Pair(400, 4, datagen.Independent, []float64{0.05}, 5)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		opt  core.Options
	}{
		{"full", core.Options{}},
		{"noDepGraph", core.Options{DisableDependencyGraph: true}},
		{"noDiscard", core.Options{DisableRegionDiscard: true}},
		{"noFeedback", core.Options{DisableFeedback: true}},
		{"countOnly", core.Options{DisableContractBenefit: true}},
		{"volumeProgCount", core.Options{ExactProgCountCap: -1}},
		{"dataOrder", core.Options{DataOrderScheduling: true}},
	}
	for _, c := range cases {
		c.opt.TargetCells = 12
		c.opt.GridResolution = 32
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := core.New(w, r, t, c.opt)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := eng.Execute(nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.AvgSatisfaction(), "avg-sat")
				b.ReportMetric(float64(rep.Counters.SkylineCmps), "cmps")
			}
		})
	}
}
