// Stock ticker: the paper's §1.1 Example 1.
//
// A real-time analytics service joins a STOCKS fundamentals table with a
// SENTIMENT table (aggregated news/blog/twitter activity) by sector, and
// serves consumers paying for different degrees of progressiveness:
//
//   - "day-trader" watches real-time quotes and needs a steady refresh: a
//     rate-quota contract (a slice of the result set every interval).
//   - "trend-desk" compiles trend analysis with a hard reporting deadline.
//   - "advisor" recommends diversification candidates and tolerates delay
//     (log decay).
//
// The example also demonstrates the progressive consumption hook: results
// are pushed to a callback the moment they are provably final.
//
// Run with:
//
//	go run ./examples/stockticker
package main

import (
	"fmt"
	"log"
	"math/rand"

	"caqe"
)

func main() {
	rng := rand.New(rand.NewSource(99))
	const sectors = 25

	// STOCKS: volatility, price-earnings ratio, drawdown risk. Lower is
	// better on every dimension.
	stocks := caqe.NewRelation(caqe.Schema{
		Name:      "Stocks",
		AttrNames: []string{"volatility", "pe", "drawdown"},
		KeyNames:  []string{"sector"},
	})
	for i := 0; i < 600; i++ {
		stocks.MustAppend([]float64{
			1 + float64(rng.Float64()*99),
			1 + float64(rng.Float64()*99),
			1 + float64(rng.Float64()*99),
		}, []int64{rng.Int63n(sectors)})
	}

	// SENTIMENT: negative-news score and disagreement score per analysis
	// window, joined by sector.
	sentiment := caqe.NewRelation(caqe.Schema{
		Name:      "Sentiment",
		AttrNames: []string{"negNews", "disagreement", "staleness"},
		KeyNames:  []string{"sector"},
	})
	for i := 0; i < 600; i++ {
		sentiment.MustAppend([]float64{
			1 + float64(rng.Float64()*99),
			1 + float64(rng.Float64()*99),
			1 + float64(rng.Float64()*99),
		}, []int64{rng.Int63n(sectors)})
	}

	w := &caqe.Workload{
		JoinConds: []caqe.EquiJoin{{Name: "same-sector", LeftKey: 0, RightKey: 0}},
		OutDims: []caqe.MapFunc{
			caqe.SumDim("risk", 0),      // volatility + negative news
			caqe.SumDim("valuation", 1), // P/E + disagreement
			caqe.SumDim("exposure", 2),  // drawdown + staleness
		},
		Queries: []caqe.Query{
			{Name: "day-trader", JC: 0, Pref: caqe.Dims(0, 1), Priority: 0.9,
				Contract: caqe.RateQuota(0.1, 15)},
			{Name: "trend-desk", JC: 0, Pref: caqe.Dims(0, 2), Priority: 0.6,
				Contract: caqe.Deadline(90)},
			{Name: "advisor", JC: 0, Pref: caqe.Dims(0, 1, 2), Priority: 0.3,
				Contract: caqe.LogDecay()},
		},
	}

	totals, err := caqe.GroundTruth(w, stocks, sentiment)
	if err != nil {
		log.Fatal(err)
	}

	// Progressive consumption: print the first alert each consumer gets,
	// the moment the engine proves it final.
	firstSeen := make([]bool, len(w.Queries))
	eng := newEngineWithHook(w, stocks, sentiment, totals, func(e caqe.Emission) {
		if !firstSeen[e.Query] {
			firstSeen[e.Query] = true
			fmt.Printf("[t=%6.1fs] first alert for %-10s stock #%-4d window #%-4d score=%.0f/%.0f\n",
				e.Time, w.Queries[e.Query].Name, e.RID, e.TID, e.Out[0], e.Out[1])
		}
	})
	report, err := eng()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nticker pass complete at %.1f virtual seconds\n", report.EndTime)
	sats := report.Satisfaction()
	for qi, q := range w.Queries {
		fmt.Printf("%-11s %3d results under %-13s → satisfaction %.2f\n",
			q.Name, len(report.PerQuery[qi]), q.Contract.Name(), sats[qi])
	}
}

// newEngineWithHook wires an emission callback through the public API.
func newEngineWithHook(w *caqe.Workload, r, t *caqe.Relation, totals []int, hook func(caqe.Emission)) func() (*caqe.Report, error) {
	return func() (*caqe.Report, error) {
		return caqe.Run(w, r, t, caqe.WithTotals(totals), caqe.WithOnEmit(hook))
	}
}
