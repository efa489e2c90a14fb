package baseline

import (
	"fmt"
	"reflect"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/datagen"
	"caqe/internal/run"
	"caqe/internal/workload"
)

// TestVirtualClockByteIdentityMatrix is the virtual-mode regression gate
// for the wall-clock work: across every strategy and data distribution, a
// virtual-clock run must be a pure function of its inputs — a rerun
// reproduces the same emission order, virtual timestamps, counters and end
// time. Any change that lets ambient state into the default clock path
// (the wall clock, the rate estimator, slot reclamation) trips this
// immediately.
func TestVirtualClockByteIdentityMatrix(t *testing.T) {
	w := workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: 4, Dims: 3, Priority: workload.HighDimsHigh,
		NewContract: func(int) contract.Contract { return contract.C3(15) },
	})
	dists := []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated}
	for _, dist := range dists {
		r, tt, err := datagen.Pair(140, 3, dist, []float64{0.05}, 31)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range All(Options{TargetCells: 6, GridResolution: 16}) {
			// "w1": every run is one executor on one goroutine.
			t.Run(fmt.Sprintf("%s-%s-w1", s.Name, dist), func(t *testing.T) {
				ref, err := s.Run(w, r, tt, nil)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := s.Run(w, r, tt, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalReports(t, ref, rep)
			})
		}
	}
}

// assertIdenticalReports requires bit-identical execution artifacts: end
// time, every counter, and the full per-query emission streams including
// virtual timestamps and delivery order.
func assertIdenticalReports(t *testing.T, a, b *run.Report) {
	t.Helper()
	if a.EndTime != b.EndTime {
		t.Errorf("end times differ: %g vs %g", a.EndTime, b.EndTime)
	}
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Errorf("counters differ:\n%+v\n%+v", a.Counters, b.Counters)
	}
	if len(a.PerQuery) != len(b.PerQuery) {
		t.Fatalf("query counts differ: %d vs %d", len(a.PerQuery), len(b.PerQuery))
	}
	for qi := range a.PerQuery {
		ea, eb := a.PerQuery[qi], b.PerQuery[qi]
		if len(ea) != len(eb) {
			t.Errorf("query %d: %d vs %d emissions", qi, len(ea), len(eb))
			continue
		}
		for k := range ea {
			if ea[k].Time != eb[k].Time || ea[k].RID != eb[k].RID || ea[k].TID != eb[k].TID {
				t.Errorf("query %d emission %d differs: %+v vs %+v", qi, k, ea[k], eb[k])
				break
			}
		}
	}
}
