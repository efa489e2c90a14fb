package baseline

import (
	"fmt"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/datagen"
	"caqe/internal/run"
	"caqe/internal/workload"
)

// TestOracleMatrix sweeps dimensionalities, workload sizes, selectivities
// and contract classes across all three distributions, checking every
// strategy against the brute-force oracle. This is the repository's widest
// correctness net; scales are kept small so the whole matrix stays fast.
func TestOracleMatrix(t *testing.T) {
	type cfg struct {
		dims, nq, n int
		sigma       float64
		mode        workload.PriorityMode
		contract    func(int) contract.Contract
	}
	cases := []cfg{
		{2, 1, 120, 0.05, workload.HighDimsHigh, func(int) contract.Contract { return contract.C1(50) }},
		{3, 2, 150, 0.02, workload.LowDimsHigh, func(int) contract.Contract { return contract.C2() }},
		{3, 4, 150, 0.08, workload.UniformPriority, func(int) contract.Contract { return contract.C3(20) }},
		{4, 6, 120, 0.05, workload.HighDimsHigh, func(int) contract.Contract { return contract.C4(0.1, 10) }},
		{4, 11, 100, 0.05, workload.LowDimsHigh, func(int) contract.Contract { return contract.C5(0.1, 10) }},
		{5, 8, 80, 0.06, workload.UniformPriority, func(int) contract.Contract { return contract.C2() }},
	}
	dists := []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated}
	for ci, c := range cases {
		for _, dist := range dists {
			name := fmt.Sprintf("case%d-%s", ci, dist)
			t.Run(name, func(t *testing.T) {
				w, err := workload.Benchmark(workload.BenchmarkConfig{
					NumQueries: c.nq, Dims: c.dims, Priority: c.mode, NewContract: c.contract,
				})
				if err != nil {
					t.Fatal(err)
				}
				r, tt, err := datagen.Pair(c.n, c.dims, dist, []float64{c.sigma}, int64(100+ci))
				if err != nil {
					t.Fatal(err)
				}
				oracle, totals, err := GroundTruthReport(w, r, tt)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range table(Options{TargetCells: 6, GridResolution: 16}) {
					rep, err := s.Run(w, r, tt, totals)
					if err != nil {
						t.Fatalf("%s: %v", s.Name, err)
					}
					if ok, diff := run.SameResults(oracle, rep); !ok {
						t.Errorf("%s: %s", s.Name, diff)
					}
				}
			})
		}
	}
}
