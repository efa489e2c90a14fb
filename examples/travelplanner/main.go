// Travel planner: the motivating scenario of the paper's §1.1 Example 2.
//
// An internet aggregator joins a HOTELS table with a TOURS table by city
// and serves three concurrent consumers with very different contracts:
//
//   - Q1 John: business trip, minimize distance-to-venue and maximize
//     rating; has 10–15 minutes between meetings (soft deadline).
//   - Q2 Jane: student hunting cheap deals, wants to be alerted the moment
//     an attractive package is identified (steep time decay).
//   - Q3 ACME travel: designs competitive tours, optimizes rating, sights
//     and cost for hourly reports (rate quota).
//
// Run with:
//
//	go run ./examples/travelplanner
package main

import (
	"fmt"
	"log"
	"math/rand"

	"caqe"
)

// Attribute layout. All preferences are min-oriented, so ratings and sight
// counts are stored negated-to-cost form: lower "rating cost" = better.
const (
	hPrice = iota // nightly rate in $
	hRatingCost
	hDistance // km to city center / venue
)

const (
	tPrice = iota // tour package price in $
	tRatingCost
	tSightsCost // 100 - number of sights
)

func buildData(seed int64) (*caqe.Relation, *caqe.Relation) {
	rng := rand.New(rand.NewSource(seed))
	const cities = 40

	hotels := caqe.NewRelation(caqe.Schema{
		Name:      "Hotels",
		AttrNames: []string{"price", "ratingCost", "distance"},
		KeyNames:  []string{"city"},
	})
	for i := 0; i < 700; i++ {
		price := 40 + float64(rng.Float64()*360)
		// Pricier hotels tend to be better rated (correlation with noise).
		rating := 1 + 4*(price-40)/360 + float64(rng.NormFloat64()*0.8)
		if rating < 1 {
			rating = 1
		}
		if rating > 5 {
			rating = 5
		}
		hotels.MustAppend(
			[]float64{price, 5 - rating, rng.Float64() * 12},
			[]int64{rng.Int63n(cities)},
		)
	}

	tours := caqe.NewRelation(caqe.Schema{
		Name:      "Tours",
		AttrNames: []string{"price", "ratingCost", "sightsCost"},
		KeyNames:  []string{"city"},
	})
	for i := 0; i < 700; i++ {
		price := 15 + float64(rng.Float64()*180)
		rating := 1 + float64(rng.Float64()*4)
		sights := float64(1 + rng.Intn(15))
		tours.MustAppend(
			[]float64{price, 5 - rating, 100 - sights},
			[]int64{rng.Int63n(cities)},
		)
	}
	return hotels, tours
}

func main() {
	hotels, tours := buildData(7)

	w := &caqe.Workload{
		JoinConds: []caqe.EquiJoin{{Name: "same-city", LeftKey: 0, RightKey: 0}},
		OutDims: []caqe.MapFunc{
			// x0: total package price for a ten-day trip (Example 5 style).
			caqe.WeightedDim("total-price", hPrice, tPrice, 10, 1, 0),
			// x1: combined rating cost of the hotel and tour.
			caqe.WeightedDim("rating-cost", hRatingCost, tRatingCost, 1, 1, 0),
			// x2: distance from the venue (hotel side only).
			caqe.LeftDim("distance", hDistance),
			// x3: how few sights the tour covers (tour side only).
			caqe.RightDim("sights-cost", tSightsCost),
		},
		Queries: []caqe.Query{
			{
				Name:     "Q1-john",
				JC:       0,
				Pref:     caqe.Dims(1, 2), // rating vs distance
				Priority: 0.8,
				Contract: caqe.SoftDeadline(120),
			},
			{
				Name:     "Q2-jane",
				JC:       0,
				Pref:     caqe.Dims(0, 2), // price vs distance
				Priority: 0.6,
				Contract: caqe.LogDecay(),
			},
			{
				Name:     "Q3-acme",
				JC:       0,
				Pref:     caqe.Dims(0, 1, 3), // price vs rating vs sights
				Priority: 0.3,
				Contract: caqe.RateQuota(0.1, 60),
			},
		},
	}

	// Exact result cardinalities let the rate-quota contract score honestly.
	totals, err := caqe.GroundTruth(w, hotels, tours)
	if err != nil {
		log.Fatal(err)
	}

	report, err := caqe.Run(w, hotels, tours, caqe.WithTotals(totals))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("travel planner finished at %.1f virtual seconds\n\n", report.EndTime)
	sats := report.Satisfaction()
	for qi, q := range w.Queries {
		ems := report.PerQuery[qi]
		first, last := 0.0, 0.0
		if len(ems) > 0 {
			first, last = ems[0].Time, ems[len(ems)-1].Time
		}
		fmt.Printf("%-9s %3d packages, first at %6.1fs, last at %6.1fs, contract %-14s satisfaction %.2f\n",
			q.Name, len(ems), first, last, q.Contract.Name(), sats[qi])
	}

	// Show Jane her three best deals (price + distance, as she asked).
	fmt.Println("\nJane's earliest alerts (hotel, tour, 10-day price, distance):")
	for i, e := range report.PerQuery[1] {
		if i >= 3 {
			break
		}
		fmt.Printf("  t=%5.1fs  hotel #%-4d tour #%-4d  $%7.0f  %4.1f km\n",
			e.Time, e.RID, e.TID, e.Out[0], e.Out[2])
	}
}
