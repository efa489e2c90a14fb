package caqe_test

import (
	"runtime"
	"testing"

	"caqe"
	"caqe/internal/contract"
	"caqe/internal/workload"
)

// Ceilings of TestRunAllocBudget. On the repository benchmark's batch-indep
// input, the join-group filter leaves one caqe.Run 12,666 join results for
// 854 emissions, and the Run allocates 3.00 MB, most of it the plan (its
// dependency graph is one bit per region pair). The same input under a
// workload with one LeftDim and one RightDim among its four mappings turns
// the filter off for both sides: 313 K join results and 33.4 MB, about 100
// bytes per join result (coordinates, result record, protection and
// candidacy masks) plus the plan; its ceiling is the one the unfiltered
// benchmark input had (37.0 MB at 324 K results, + 25 %). Either report
// keeps 0.1 MB reachable.
// Anything that grows per (cuboid node, join result), is copied as it
// grows, or lets an emission alias the skyline arena lands far above the
// ceilings — the layout with all three measured 366.7 MB and 49.9 MB on
// the unfiltered benchmark input.
const (
	filteredAllocCeiling   = 3.75390625 * (1 << 20) // the filtered Run: the measured 3.00 MB + 25 %
	unfilteredAllocCeiling = 46 << 20               // the unfiltered Run
	reportLiveCeiling      = 4 << 20                // bytes a kept Report holds after a GC
)

// TestRunAllocBudget holds per-result state to the size of the windows, not
// of the join: the bytes one batch Run allocates on the result-flow-bound
// input of the repository benchmark's batch-indep workload, with the
// join-group filter on and (through one-sided mappings) off, and the bytes
// a retained Report keeps reachable afterwards.
func TestRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 2500-row pair")
	}
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: 11, Dims: 4, Priority: workload.HighDimsHigh,
		NewContract: func(int) contract.Contract { return contract.C2() },
	})
	oneSided := *w
	oneSided.OutDims = append([]caqe.MapFunc(nil), w.OutDims...)
	oneSided.OutDims[2], oneSided.OutDims[3] = caqe.LeftDim("d2", 2), caqe.RightDim("d3", 3)
	for _, c := range []struct {
		name    string
		w       *caqe.Workload
		ceiling uint64
	}{
		{"filtered", w, filteredAllocCeiling},
		{"unfiltered", &oneSided, unfilteredAllocCeiling},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, tt, err := caqe.GeneratePair(2500, 4, caqe.Independent, []float64{0.1}, 2014)
			if err != nil {
				t.Fatal(err)
			}
			var before, after, kept, dropped runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := caqe.Run(c.w, r, tt, caqe.Options{})
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocated := after.TotalAlloc - before.TotalAlloc
			results, emissions := rep.Counters.JoinResults, rep.Counters.TuplesEmitted

			// What the report keeps reachable: the heap with it, minus the
			// heap once it is dropped.
			runtime.GC()
			runtime.ReadMemStats(&kept)
			runtime.KeepAlive(rep)
			rep = nil
			runtime.GC()
			runtime.ReadMemStats(&dropped)
			live := int64(kept.HeapAlloc) - int64(dropped.HeapAlloc)

			t.Logf("join results %d, emissions %d: Run allocated %.1f MB, kept Report holds %.1f MB",
				results, emissions, float64(allocated)/(1<<20), float64(live)/(1<<20))
			if allocated > c.ceiling {
				t.Errorf("Run allocated %d bytes, ceiling %d", allocated, c.ceiling)
			}
			if live > reportLiveCeiling {
				t.Errorf("kept Report holds %d live bytes after GC, ceiling %d", live, reportLiveCeiling)
			}
		})
	}
}
