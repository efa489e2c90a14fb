package core_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"caqe/internal/baseline"
	"caqe/internal/contract"
	"caqe/internal/core"
	"caqe/internal/datagen"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/run"
	"caqe/internal/workload"
)

// TestWidePreferencesMatchGroundTruth runs queries of 5 and 6 preference
// dimensions — too wide for preference.Lanes, so their windows and their
// emission frontiers compare through the kernel — beside a 3-dimensional
// one, in a batch run and admitted into a running execution at several
// offsets, and checks every result set against baseline.GroundTruth.
func TestWidePreferencesMatchGroundTruth(t *testing.T) {
	const dims = 6
	narrow := workload.Query{Name: "narrow3", Pref: preference.NewSubspace(1, 3, 4), Priority: 0.3, Contract: contract.C2()}
	wide5 := workload.Query{Name: "wide5", Pref: preference.NewSubspace(0, 1, 2, 3, 5), Priority: 0.7, Contract: contract.C3(10)}
	wide6 := workload.Query{Name: "wide6", Pref: preference.NewSubspace(0, 1, 2, 3, 4, 5), Priority: 0.5, Contract: contract.C1(10)}
	workloadOf := func(qs ...workload.Query) *workload.Workload {
		w := &workload.Workload{JoinConds: []join.EquiJoin{{Name: "JC0", LeftKey: 0, RightKey: 0}}, Queries: qs}
		for k := 0; k < dims; k++ {
			w.OutDims = append(w.OutDims, join.Sum(fmt.Sprintf("x%d", k), k))
		}
		return w
	}
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.AntiCorrelated} {
		r, tt, err := datagen.Pair(120, dims, dist, []float64{0.05}, 41)
		if err != nil {
			t.Fatal(err)
		}
		truth, _, err := baseline.GroundTruth(workloadOf(narrow, wide5, wide6), r, tt)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]run.ResultKey, len(truth))
		for qi, rs := range truth {
			for _, res := range rs {
				want[qi] = append(want[qi], run.ResultKey{RID: res.RID, TID: res.TID})
			}
			sort.Slice(want[qi], func(i, j int) bool {
				a, b := want[qi][i], want[qi][j]
				return a.RID < b.RID || a.RID == b.RID && a.TID < b.TID
			})
			if len(want[qi]) < 2 {
				t.Fatalf("%v: query %d has %d ground-truth results, too few to tell", dist, qi, len(want[qi]))
			}
		}
		check := func(label string, rep *run.Report, qi, ref int) {
			t.Helper()
			if got := rep.ResultSet(qi); !reflect.DeepEqual(got, want[ref]) {
				t.Errorf("%v %s: query %d delivered %d results, ground truth %d", dist, label, ref, len(got), len(want[ref]))
			}
		}

		e, err := core.New(workloadOf(narrow, wide5, wide6), r, tt, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Execute(nil)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range want {
			check("batch", rep, qi, qi)
		}

		for _, off := range []int{0, 3, 1 << 20} {
			w := workloadOf(narrow)
			e, err := core.New(w, r, tt, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rep := run.NewReport("CAQE", w, nil)
			x, err := e.StartExec(metrics.NewClock(), rep)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < off && x.Step(); i++ {
			}
			a, err := x.Admit(wide5, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2 && x.Step(); i++ {
			}
			b, err := x.Admit(wide6, 0)
			if err != nil {
				t.Fatal(err)
			}
			for x.Step() {
			}
			x.Finish()
			label := fmt.Sprintf("admitted after %d steps", off)
			check(label, rep, 0, 0)
			check(label, rep, a, 1)
			check(label, rep, b, 2)
		}
	}
}
