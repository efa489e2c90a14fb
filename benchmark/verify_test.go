package main

import (
	"testing"

	"caqe"
	"caqe/internal/baseline"
	"caqe/internal/join"
)

// TestCertifyAgreesWithGroundTruth pins the certificate check against the
// repository's own oracle: it accepts exactly the ground-truth result sets
// and rejects a set with a result missing, a dominated pair added, a result
// repeated, a pair that does not join, or wrong coordinates.
func TestCertifyAgreesWithGroundTruth(t *testing.T) {
	for _, dist := range []caqe.Distribution{caqe.AntiCorrelated, caqe.Independent} {
		r, tt, err := caqe.GeneratePair(300, 4, dist, []float64{0.05}, 99)
		if err != nil {
			t.Fatal(err)
		}
		w := batchWorkload(500)
		sets, totals, err := baseline.GroundTruth(w, r, tt)
		if err != nil {
			t.Fatal(err)
		}
		publicTotals, err := caqe.GroundTruth(w, r, tt)
		if err != nil {
			t.Fatal(err)
		}
		truth := make([][]caqe.Emission, len(sets))
		for qi, set := range sets {
			if totals[qi] != publicTotals[qi] {
				t.Fatalf("query %d: oracle totals disagree: %d vs %d", qi, totals[qi], publicTotals[qi])
			}
			for _, jr := range set {
				truth[qi] = append(truth[qi], caqe.Emission{Query: qi, RID: jr.RID, TID: jr.TID, Out: jr.Out})
			}
		}
		for qi, err := range certify(w, r, tt, truth) {
			if err != nil {
				t.Errorf("%v: ground truth of query %d rejected: %v", dist, qi, err)
			}
		}

		// The engine's own output must pass too.
		rep, err := caqe.Run(w, r, tt, caqe.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for qi, err := range certify(w, r, tt, rep.PerQuery) {
			if err != nil {
				t.Errorf("%v: engine output of query %d rejected: %v", dist, qi, err)
			}
		}

		const q = 10 // the 4-d query: the largest skyline
		inTruth := map[pairKey]bool{}
		for _, e := range truth[q] {
			inTruth[pairKey{e.RID, e.TID}] = true
		}
		var dominated, stranger caqe.Emission
	search: // a pair of the join that is not in q's skyline
		for i := range r.Tuples {
			for j := range tt.Tuples {
				rt, tj := &r.Tuples[i], &tt.Tuples[j]
				if w.JoinConds[0].Matches(rt, tj) && !inTruth[pairKey{rt.ID, tj.ID}] {
					dominated = caqe.Emission{Query: q, RID: rt.ID, TID: tj.ID, Out: join.Project(w.OutDims, rt, tj)}
					break search
				}
			}
		}
		if dominated.Out == nil {
			t.Fatalf("%v: no dominated pair found for the negative case", dist)
		}
		stranger = truth[q][0]
		stranger.TID = -1
		twisted := truth[q][0]
		twisted.Out = append([]float64(nil), twisted.Out...)
		twisted.Out[0]++
		bad := map[string][]caqe.Emission{
			"missing":     truth[q][1:],
			"dominated":   append(append([]caqe.Emission(nil), truth[q]...), dominated),
			"repeated":    append(append([]caqe.Emission(nil), truth[q]...), truth[q][0]),
			"not a pair":  append(append([]caqe.Emission(nil), truth[q][1:]...), stranger),
			"coordinates": append(append([]caqe.Emission(nil), truth[q][1:]...), twisted),
		}
		for name, set := range bad {
			got := append([][]caqe.Emission(nil), truth...)
			got[q] = set
			errs := certify(w, r, tt, got)
			if errs[q] == nil {
				t.Errorf("%v: result set with a %s result accepted", dist, name)
			}
			for qi, err := range errs {
				if qi != q && err != nil {
					t.Errorf("%v/%s: untouched query %d rejected: %v", dist, name, qi, err)
				}
			}
		}
	}
}

func TestResultDigestIgnoresOrder(t *testing.T) {
	a := []caqe.Emission{{RID: 1, TID: 2}, {RID: 3, TID: 4}, {RID: 5, TID: 6}}
	b := []caqe.Emission{a[2], a[0], a[1]}
	if resultDigest(a) != resultDigest(b) {
		t.Error("digest depends on delivery order")
	}
	if resultDigest(a) == resultDigest(a[:2]) || resultDigest(a) == resultDigest([]caqe.Emission{{RID: 2, TID: 1}, a[1], a[2]}) {
		t.Error("digest misses a dropped or swapped pair")
	}
}
