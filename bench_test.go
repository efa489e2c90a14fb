// Benchmarks regenerating every table and figure of the paper's evaluation
// (§7), one testing.B benchmark per figure, plus the strategy, ablation,
// contract and ground-truth benchmarks. Figure
// benchmarks run the full strategy comparison at a reduced scale per
// iteration and report the headline quantity as a custom metric; use
// cmd/caqe-bench for the full-scale tables. Per-layer timings on real
// inputs (partition, cuboid, window insert, join, the whole pipeline) are
// the traced runs of benchmark/.
//
//	go test -bench=. -benchmem
package caqe_test

import (
	"testing"

	"caqe/internal/baseline"
	"caqe/internal/bench"
	"caqe/internal/contract"
	"caqe/internal/core"
	"caqe/internal/datagen"
	"caqe/internal/workload"
)

// benchCfg is the reduced per-iteration scale of the figure benchmarks.
func benchCfg() bench.Config {
	return bench.Config{N: 300, Dims: 4, NumQueries: 11, Selectivity: 0.05,
		Seed: 2014, TargetCells: 12, GridResolution: 32}
}

func reportSat(b *testing.B, tab *bench.Table) {
	b.Helper()
	// Average CAQE satisfaction across the table's rows.
	sum := 0.0
	for _, row := range tab.Values {
		sum += row[0]
	}
	b.ReportMetric(sum/float64(len(tab.Values)), "caqe-sat")
}

func BenchmarkFig9aCorrelated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Figure9(benchCfg(), datagen.Correlated)
		if err != nil {
			b.Fatal(err)
		}
		reportSat(b, tab)
	}
}

func BenchmarkFig9bIndependent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Figure9(benchCfg(), datagen.Independent)
		if err != nil {
			b.Fatal(err)
		}
		reportSat(b, tab)
	}
}

func BenchmarkFig9cAntiCorrelated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Figure9(benchCfg(), datagen.AntiCorrelated)
		if err != nil {
			b.Fatal(err)
		}
		reportSat(b, tab)
	}
}

// BenchmarkFig10 covers Figures 10a (join results), 10b (skyline
// comparisons) and 10c (execution time) in one run — they share the same
// executions.
func BenchmarkFig10Statistics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, err := bench.Figure10(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		// Report the independent-distribution JFSL ratios, the paper's
		// headline comparison (§7.3).
		b.ReportMetric(tabs[0].Values[1][2], "jfsl-joins-x")
		b.ReportMetric(tabs[1].Values[1][2], "jfsl-cmps-x")
		b.ReportMetric(tabs[2].Values[1][2], "jfsl-time-x")
	}
}

func BenchmarkFig11aWorkloadSizeC2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Figure11(benchCfg(), "C2")
		if err != nil {
			b.Fatal(err)
		}
		reportSat(b, tab)
	}
}

func BenchmarkFig11bWorkloadSizeC3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Figure11(benchCfg(), "C3")
		if err != nil {
			b.Fatal(err)
		}
		reportSat(b, tab)
	}
}

// ---------------------------------------------------------------------------
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
			var strat baseline.Strategy
			for _, s := range baseline.All(baseline.Options{TargetCells: 12, GridResolution: 32}) {
				if s.Name == name {
					strat = s
				}
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

func BenchmarkContractTracking(b *testing.B) {
	cs := []contract.Contract{contract.C1(30), contract.C2(), contract.C3(30),
		contract.C4(0.1, 10), contract.C5(0.1, 10)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			tr := c.NewTracker(1000)
			for ts := 0.5; ts < 100; ts += 0.1 {
				tr.Observe(ts)
			}
			tr.Finalize(100)
			_ = tr.PScore()
		}
	}
}

func BenchmarkGroundTruth(b *testing.B) {
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: 11, Dims: 4, Priority: workload.UniformPriority,
		NewContract: func(int) contract.Contract { return contract.C2() },
	})
	r, t, err := datagen.Pair(500, 4, datagen.Independent, []float64{0.05}, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.GroundTruth(w, r, t); err != nil {
			b.Fatal(err)
		}
	}
}
