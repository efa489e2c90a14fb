// Supply chain: the paper's §5.1 Examples 14–15.
//
// RETAILER and TRANSPORTERS are joined under *two different* join
// conditions by two queries: Q1 matches by country, Q2 matches by part
// category. The example demonstrates CAQE's coarse-level join: input cells
// carry a signature (the set of distinct key values of their members) per
// join column, and a cell pair is scheduled for tuple-level processing only
// if its signatures intersect for at least one query's condition — pairs
// like {Tires, Iron Ore} × {Dairy, Medical} are pruned without probing a
// single tuple pair.
//
// Run with:
//
//	go run ./examples/supplychain
package main

import (
	"fmt"
	"log"
	"math/rand"

	"caqe"
)

func main() {
	rng := rand.New(rand.NewSource(2014))
	const (
		countries = 30
		parts     = 50
	)

	// RETAILER: cost index, defect rate, lead time; keyed by country and
	// part category.
	retailers := caqe.NewRelation(caqe.Schema{
		Name:      "Retailer",
		AttrNames: []string{"cost", "defectRate", "leadTime"},
		KeyNames:  []string{"country", "part"},
	})
	for i := 0; i < 500; i++ {
		retailers.MustAppend([]float64{
			1 + float64(rng.Float64()*99), 1 + float64(rng.Float64()*99), 1 + float64(rng.Float64()*99),
		}, []int64{rng.Int63n(countries), rng.Int63n(parts)})
	}

	// TRANSPORTERS: freight cost, loss rate, transit time; keyed the same
	// way. Different key distributions make some cell pairs joinable by
	// country but not by part, and vice versa.
	transporters := caqe.NewRelation(caqe.Schema{
		Name:      "Transporters",
		AttrNames: []string{"freight", "lossRate", "transit"},
		KeyNames:  []string{"country", "part"},
	})
	for i := 0; i < 500; i++ {
		transporters.MustAppend([]float64{
			1 + float64(rng.Float64()*99), 1 + float64(rng.Float64()*99), 1 + float64(rng.Float64()*99),
		}, []int64{rng.Int63n(countries), rng.Int63n(parts)})
	}

	w := &caqe.Workload{
		JoinConds: []caqe.EquiJoin{
			{Name: "by-country", LeftKey: 0, RightKey: 0}, // Q1: r_country = t_country
			{Name: "by-part", LeftKey: 1, RightKey: 1},    // Q2: r_part = t_part
		},
		OutDims: []caqe.MapFunc{
			caqe.SumDim("total-cost", 0), // cost + freight
			caqe.SumDim("total-risk", 1), // defects + losses
			caqe.SumDim("total-time", 2), // lead + transit
		},
		Queries: []caqe.Query{
			{Name: "Q1-domestic-sourcing", JC: 0, Pref: caqe.Dims(0, 2),
				Priority: 0.8, Contract: caqe.SoftDeadline(60)},
			{Name: "Q2-part-routing", JC: 1, Pref: caqe.Dims(0, 1),
				Priority: 0.5, Contract: caqe.LogDecay()},
		},
	}

	report, err := caqe.Run(w, retailers, transporters, caqe.Options{TargetCells: 16})
	if err != nil {
		log.Fatal(err)
	}

	c := report.Counters
	fmt.Println("coarse-level join over signatures (Examples 14-15):")
	fmt.Printf("  cell pairs pruned without any tuple work: %d\n", c.RegionsPruned)
	fmt.Printf("  regions processed at tuple level:         %d\n", c.RegionsDone)
	fmt.Printf("  join pairs actually probed:               %d (of %d possible per condition)\n",
		c.JoinProbes, retailers.Len()*transporters.Len())

	fmt.Printf("\nfinished at %.1f virtual seconds\n", report.EndTime)
	sats := report.Satisfaction()
	for qi, q := range w.Queries {
		fmt.Printf("%-22s %3d results via %-10s satisfaction %.2f\n",
			q.Name, len(report.PerQuery[qi]), w.JoinConds[q.JC].Name, sats[qi])
	}

	fmt.Println("\nbest domestic sourcing options (cost vs lead time):")
	for i, e := range report.PerQuery[0] {
		if i >= 4 {
			break
		}
		fmt.Printf("  retailer #%-4d transporter #%-4d cost=%5.1f time=%5.1f\n",
			e.RID, e.TID, e.Out[0], e.Out[2])
	}
}
