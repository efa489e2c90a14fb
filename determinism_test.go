package caqe_test

import (
	"sync"
	"testing"

	"caqe"
	"caqe/internal/run"
)

// determinismWorkload exercises every contract class over two join
// conditions, so every strategy runs both its nested-loop and hash-join
// paths.
func determinismWorkload() *caqe.Workload {
	return &caqe.Workload{
		JoinConds: []caqe.EquiJoin{
			{Name: "JC1", LeftKey: 0, RightKey: 0},
			{Name: "JC2", LeftKey: 1, RightKey: 1},
		},
		OutDims: []caqe.MapFunc{
			caqe.SumDim("x0", 0),
			caqe.SumDim("x1", 1),
			caqe.SumDim("x2", 2),
		},
		Queries: []caqe.Query{
			{Name: "Q1", JC: 0, Pref: caqe.Dims(0, 1), Priority: 0.9, Contract: caqe.Deadline(40)},
			{Name: "Q2", JC: 0, Pref: caqe.Dims(0, 2), Priority: 0.7, Contract: caqe.LogDecay()},
			{Name: "Q3", JC: 1, Pref: caqe.Dims(1, 2), Priority: 0.5, Contract: caqe.SoftDeadline(25)},
			{Name: "Q4", JC: 0, Pref: caqe.Dims(0, 1, 2), Priority: 0.4, Contract: caqe.RateQuota(0.1, 10)},
			{Name: "Q5", JC: 1, Pref: caqe.Dims(2), Priority: 0.3, Contract: caqe.Hybrid(0.1, 10)},
		},
	}
}

// requireIdenticalReports asserts byte-identical execution: the same result
// sets, the same emissions in the same order with exactly equal virtual
// timestamps and output points, the same operation counters and the same
// end time.
func requireIdenticalReports(t *testing.T, want, got *run.Report) {
	t.Helper()
	if ok, diff := run.SameResults(want, got); !ok {
		t.Fatalf("result sets differ: %s", diff)
	}
	for qi := range want.PerQuery {
		we, ge := want.PerQuery[qi], got.PerQuery[qi]
		if len(we) != len(ge) {
			t.Fatalf("query %d: %d vs %d emissions", qi, len(we), len(ge))
		}
		for i := range we {
			if we[i].RID != ge[i].RID || we[i].TID != ge[i].TID {
				t.Fatalf("query %d emission %d: tuple (%d,%d) vs (%d,%d)",
					qi, i, we[i].RID, we[i].TID, ge[i].RID, ge[i].TID)
			}
			if we[i].Time != ge[i].Time {
				t.Fatalf("query %d emission %d: timestamp %v vs %v",
					qi, i, we[i].Time, ge[i].Time)
			}
			if len(we[i].Out) != len(ge[i].Out) {
				t.Fatalf("query %d emission %d: output arity differs", qi, i)
			}
			for k := range we[i].Out {
				if we[i].Out[k] != ge[i].Out[k] {
					t.Fatalf("query %d emission %d dim %d: %v vs %v",
						qi, i, k, we[i].Out[k], ge[i].Out[k])
				}
			}
		}
	}
	if want.Counters != got.Counters {
		t.Fatalf("counters differ:\n  want: %+v\n  got:  %+v", want.Counters, got.Counters)
	}
	if want.EndTime != got.EndTime {
		t.Fatalf("end time %v vs %v", want.EndTime, got.EndTime)
	}
}

// TestParallelWorkersBitIdentical is the determinism contract for engines
// that run side by side, as cluster.Run's shards do: for every strategy and
// every data distribution, several runs on their own goroutines over the
// same shared inputs must each reproduce the serial report exactly —
// results, emission order, virtual timestamps, counters and end time. A run
// that wrote to its inputs or to package-level state would break this;
// under -race it also shakes out the data race itself.
func TestParallelWorkersBitIdentical(t *testing.T) {
	dists := []struct {
		name string
		d    caqe.Distribution
	}{
		{"correlated", caqe.Correlated},
		{"independent", caqe.Independent},
		{"anticorrelated", caqe.AntiCorrelated},
	}
	w := determinismWorkload()
	for _, dist := range dists {
		t.Run(dist.name, func(t *testing.T) {
			r, tt, err := caqe.GeneratePair(400, 3, dist.d, []float64{0.05, 0.05}, 7)
			if err != nil {
				t.Fatal(err)
			}
			totals, err := caqe.GroundTruth(w, r, tt)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range caqe.StrategyNames() {
				t.Run(string(name), func(t *testing.T) {
					serial, err := caqe.RunStrategy(name, w, r, tt, caqe.WithTotals(totals))
					if err != nil {
						t.Fatal(err)
					}
					emitted := 0
					for _, ems := range serial.PerQuery {
						emitted += len(ems)
					}
					if emitted == 0 {
						t.Fatal("strategy emitted nothing; determinism check is vacuous")
					}
					const runs = 3
					reps := make([]*run.Report, runs)
					errs := make([]error, runs)
					var wg sync.WaitGroup
					for i := range reps {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							reps[i], errs[i] = caqe.RunStrategy(name, w, r, tt, caqe.WithTotals(totals))
						}(i)
					}
					wg.Wait()
					for i, rep := range reps {
						if errs[i] != nil {
							t.Fatalf("run %d: %v", i, errs[i])
						}
						requireIdenticalReports(t, serial, rep)
					}
				})
			}
		})
	}
}
