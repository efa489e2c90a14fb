package caqe_test

import (
	"fmt"

	"caqe"
)

// ExampleRun executes a two-query contract workload over a deterministic
// synthetic dataset. The virtual clock makes the entire run reproducible,
// so the satisfaction scores are stable across machines.
func ExampleRun() {
	r, t, err := caqe.GeneratePair(300, 3, caqe.Independent, []float64{0.03}, 42)
	if err != nil {
		panic(err)
	}
	w := &caqe.Workload{
		JoinConds: []caqe.EquiJoin{{Name: "JC1", LeftKey: 0, RightKey: 0}},
		OutDims: []caqe.MapFunc{
			caqe.SumDim("cost", 0),
			caqe.SumDim("distance", 1),
			caqe.SumDim("risk", 2),
		},
		Queries: []caqe.Query{
			{Name: "impatient", JC: 0, Pref: caqe.Dims(0, 1), Priority: 0.9,
				Contract: caqe.Deadline(60)},
			{Name: "thorough", JC: 0, Pref: caqe.Dims(0, 1, 2), Priority: 0.5,
				Contract: caqe.LogDecay()},
		},
	}
	rep, err := caqe.Run(w, r, t, caqe.Options{})
	if err != nil {
		panic(err)
	}
	sats := rep.Satisfaction()
	for qi, q := range w.Queries {
		fmt.Printf("%s: %d results, satisfaction %.2f\n",
			q.Name, len(rep.PerQuery[qi]), sats[qi])
	}
	// Output:
	// impatient: 9 results, satisfaction 1.00
	// thorough: 42 results, satisfaction 1.00
}

// ExampleRun_progressive streams results as they are proven final.
func ExampleRun_progressive() {
	r, t, err := caqe.GeneratePair(200, 2, caqe.Correlated, []float64{0.05}, 7)
	if err != nil {
		panic(err)
	}
	w := &caqe.Workload{
		JoinConds: []caqe.EquiJoin{{Name: "JC1", LeftKey: 0, RightKey: 0}},
		OutDims:   []caqe.MapFunc{caqe.SumDim("x", 0), caqe.SumDim("y", 1)},
		Queries: []caqe.Query{
			{Name: "Q1", JC: 0, Pref: caqe.Dims(0, 1), Priority: 0.8,
				Contract: caqe.SoftDeadline(30)},
		},
	}
	count := 0
	_, err = caqe.Run(w, r, t, caqe.WithOnEmit(func(e caqe.Emission) {
		count++
	}))
	if err != nil {
		panic(err)
	}
	fmt.Printf("streamed %d final results\n", count)
	// Output:
	// streamed 3 final results
}
