package core

import (
	"math"
	"math/rand"
	"testing"

	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/region"
)

// referenceExactProgCount is exactProgCount as it read before it kept the
// cell corner per axis and the dominators' corners in a flat scratch: every
// dominator, in list order, recomputing the corner on every axis it reads.
func (st *state) referenceExactProgCount(rc *region.Region, qi int, pref preference.Subspace, doms []*region.Region) float64 {
	lo := make([]int, len(pref))
	hi := make([]int, len(pref))
	for i, k := range pref {
		lo[i] = int(math.Floor((rc.Lo[k] - st.space.GridLo[k]) / st.space.GridStep[k]))
		hi[i] = int(math.Floor((rc.Hi[k] - st.space.GridLo[k]) / st.space.GridStep[k]))
	}
	coord := append([]int(nil), lo...)
	count := 0.0
	for {
		// Lower corner of the current cell.
		st.clock.CountCellOp(1)
		dominated := false
		for _, rf := range doms {
			ok := true
			for i, k := range pref {
				corner := st.space.GridLo[k] + float64(coord[i])*st.space.GridStep[k]
				if rf.Lo[k] > corner {
					ok = false
					break
				}
			}
			if ok {
				dominated = true
				break
			}
		}
		if !dominated {
			count++
		}
		// Advance the odometer.
		i := 0
		for ; i < len(coord); i++ {
			coord[i]++
			if coord[i] <= hi[i] {
				break
			}
			coord[i] = lo[i]
		}
		if i == len(coord) {
			break
		}
	}
	return count
}

// TestExactProgCountMatchesReference: on random grids, regions and
// dominator lists — shuffled, with duplicates, with corners exactly on grid
// lines or between them, and with zero-extent axes — exactProgCount returns
// the reference's count and charges the same cell operations. One state
// serves every trial, so its scratch is reused across list lengths and
// dimensionalities as in a run.
func TestExactProgCountMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	steps := []float64{0.25, 0.1, 1, 3.7}
	fast := &state{clock: metrics.NewClock()}
	partial := 0
	for trial := 0; trial < 2000; trial++ {
		nd := 1 + rng.Intn(5)
		sp := &region.Space{GridLo: make([]float64, nd), GridStep: make([]float64, nd)}
		for k := 0; k < nd; k++ {
			sp.GridLo[k] = float64(rng.Intn(5)) - 2
			sp.GridStep[k] = steps[rng.Intn(len(steps))]
		}
		// A value on the grid line c cells up axis k, or a random fraction
		// into that cell.
		at := func(k, c int) float64 {
			v := sp.GridLo[k] + float64(c)*sp.GridStep[k]
			if rng.Intn(2) == 0 {
				v += rng.Float64() * sp.GridStep[k]
			}
			return v
		}
		rc := &region.Region{Lo: make([]float64, nd), Hi: make([]float64, nd)}
		base := make([]int, nd)
		for k := 0; k < nd; k++ {
			base[k] = rng.Intn(4)
			rc.Lo[k] = at(k, base[k])
			rc.Hi[k] = rc.Lo[k]
			if rng.Intn(4) != 0 { // else a zero-extent axis
				rc.Hi[k] += float64(rng.Intn(5)) * sp.GridStep[k] * (0.5 + rng.Float64())
			}
		}
		var pool []*region.Region
		for n := 1 + rng.Intn(6); n > 0; n-- {
			rf := &region.Region{Lo: make([]float64, nd)}
			for k := range rf.Lo {
				rf.Lo[k] = at(k, base[k]+rng.Intn(6)-1)
			}
			pool = append(pool, rf)
		}
		doms := make([]*region.Region, 1+rng.Intn(10))
		for i := range doms {
			doms[i] = pool[rng.Intn(len(pool))]
		}
		rng.Shuffle(len(doms), func(i, j int) { doms[i], doms[j] = doms[j], doms[i] })
		var pref preference.Subspace
		for len(pref) == 0 {
			pref = preference.SubspaceFromMask(uint64(rng.Intn(1 << uint(nd))))
		}

		ref := &state{space: sp, clock: metrics.NewClock()}
		fast.space = sp
		before := fast.clock.Counters().CellOps
		want := ref.referenceExactProgCount(rc, 0, pref, doms)
		got := fast.exactProgCount(rc, pref, doms)
		if got != want {
			t.Fatalf("trial %d: count %g, reference %g (region %v, pref %v)", trial, got, want, rc, pref)
		}
		if gotOps, wantOps := fast.clock.Counters().CellOps-before, ref.clock.Counters().CellOps; gotOps != wantOps {
			t.Fatalf("trial %d: %d cell operations, reference %d", trial, gotOps, wantOps)
		}
		if want > 0 && want < float64(ref.clock.Counters().CellOps) {
			partial++
		}
	}
	// Covered and uncovered cells must meet in one region often, or the
	// comparison proves little.
	if partial < 200 {
		t.Fatalf("only %d of 2000 trials mixed covered and uncovered cells", partial)
	}
	t.Logf("%d of 2000 trials mixed covered and uncovered cells", partial)
}
