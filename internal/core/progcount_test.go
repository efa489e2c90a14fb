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

// progGrid draws a grid on len(ext) axes and a region on it spanning about
// ext[k] cells along axis k, a single cell being of no width half the time.
// at(k, c) is a value on the grid line c cells up axis k, one ulp off it, or
// a random fraction into that cell; base[k] is the region's first cell on
// axis k.
func progGrid(rng *rand.Rand, ext []int) (sp *region.Space, rc *region.Region, base []int, at func(k, c int) float64) {
	nd := len(ext)
	steps := []float64{0.25, 0.1, 1, 3.7}
	sp = &region.Space{GridLo: make([]float64, nd), GridStep: make([]float64, nd)}
	for k := 0; k < nd; k++ {
		sp.GridLo[k] = float64(rng.Intn(5)) - 2
		sp.GridStep[k] = steps[rng.Intn(len(steps))]
	}
	at = func(k, c int) float64 {
		v := sp.GridLo[k] + float64(c)*sp.GridStep[k]
		switch rng.Intn(4) {
		case 0, 1:
			v += rng.Float64() * sp.GridStep[k]
		case 2: // one ulp off the line, where a Ceil guess can miss
			v = math.Nextafter(v, math.Inf(2*rng.Intn(2)-1))
		}
		return v
	}
	rc = &region.Region{Lo: make([]float64, nd), Hi: make([]float64, nd)}
	base = make([]int, nd)
	for k := 0; k < nd; k++ {
		base[k] = rng.Intn(4)
		rc.Lo[k] = at(k, base[k])
		rc.Hi[k] = rc.Lo[k]
		if ext[k] > 1 || rng.Intn(2) == 0 {
			rc.Hi[k] = max(rc.Lo[k], at(k, base[k]+ext[k]-1))
		}
	}
	return sp, rc, base, at
}

// TestExactProgCountMatchesReference: on random grids, regions and
// dominator lists, exactProgCount returns the reference's count and charges
// the same cell operations. The regions span 1 to 512 cells (the default
// ExactProgCountCap) on 1 to 5 axes, some of them of no width. The lists
// are shuffled draws from a small pool, so they hold duplicates and
// distinct corners with one threshold; their corners lie on grid lines, one
// ulp off them or between them, and some are NaN, ±Inf or −0. A third of
// the trials give every dominator a corner beyond the region on one axis
// (the list covers nothing), and a third add one at or below the region's
// first corner (the list covers everything). One state serves every trial,
// so its scratch is reused across list lengths and dimensionalities as in
// a run.
func TestExactProgCountMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	fast := &state{clock: metrics.NewClock()}
	const trials = 3000
	var partial, none, all, wide int
	for trial := 0; trial < trials; trial++ {
		nd := 1 + rng.Intn(5)
		var pref preference.Subspace
		for len(pref) == 0 {
			pref = preference.SubspaceFromMask(uint64(rng.Intn(1 << uint(nd))))
		}
		ext := make([]int, nd)
		budget := 512
		for k := range ext {
			switch {
			case !pref.Contains(k):
				ext[k] = 1
			case rng.Intn(3) == 0:
				ext[k] = 1 + rng.Intn(budget)
			default:
				ext[k] = 1 + rng.Intn(min(budget, 7))
			}
			budget /= ext[k]
		}
		sp, rc, base, at := progGrid(rng, ext)
		mode := rng.Intn(3)
		var pool []*region.Region
		for n := 1 + rng.Intn(8); n > 0; n-- {
			rf := &region.Region{Lo: make([]float64, nd)}
			for k := range rf.Lo {
				if rng.Intn(12) == 0 {
					rf.Lo[k] = specials[rng.Intn(len(specials))]
				} else {
					rf.Lo[k] = at(k, base[k]+rng.Intn(ext[k]+2)-1)
				}
			}
			if mode == 1 { // beyond the region's last cell on one axis
				k := pref[rng.Intn(len(pref))]
				rf.Lo[k] = math.Inf(1)
				if rng.Intn(2) == 0 {
					rf.Lo[k] = at(k, base[k]+ext[k]+rng.Intn(2))
				}
			}
			pool = append(pool, rf)
		}
		doms := make([]*region.Region, 1+rng.Intn(12))
		for i := range doms {
			doms[i] = pool[rng.Intn(len(pool))]
		}
		if mode == 2 { // at or below the region's first corner on every axis
			rf := &region.Region{Lo: make([]float64, nd)}
			for k := range rf.Lo {
				rf.Lo[k] = sp.GridLo[k] + float64(base[k]-rng.Intn(2))*sp.GridStep[k]
				if rng.Intn(4) == 0 {
					rf.Lo[k] = specials[rng.Intn(len(specials))]
				}
				if rf.Lo[k] > sp.GridLo[k]+float64(base[k])*sp.GridStep[k] {
					rf.Lo[k] = math.Inf(-1) // a special above the corner
				}
			}
			doms = append(doms, rf)
		}
		rng.Shuffle(len(doms), func(i, j int) { doms[i], doms[j] = doms[j], doms[i] })

		ref := &state{space: sp, clock: metrics.NewClock()}
		fast.space = sp
		before := fast.clock.Counters().CellOps
		want := ref.referenceExactProgCount(rc, 0, pref, doms)
		got := fast.exactProgCount(rc, pref, doms, sp.CellCount(rc, pref))
		if got != want {
			t.Fatalf("trial %d: count %g, reference %g (region %v, pref %v)", trial, got, want, rc, pref)
		}
		cells := ref.clock.Counters().CellOps
		if gotOps := fast.clock.Counters().CellOps - before; gotOps != cells {
			t.Fatalf("trial %d: %d cell operations, reference %d", trial, gotOps, cells)
		}
		switch {
		case want == 0:
			all++
		case want == float64(cells):
			none++
		default:
			partial++
		}
		if cells > 256 {
			wide++
		}
	}
	// Covered and uncovered cells must meet in one region often, every
	// outcome must occur, and wide regions too, or the comparison proves
	// little.
	t.Logf("%d trials: %d mixed covered and uncovered cells, %d covered none, %d covered all, %d spanned over 256 cells", trials, partial, none, all, wide)
	if partial < 400 || none < 400 || all < 400 || wide < 400 {
		t.Fatal("too few trials of some outcome")
	}
}

// BenchmarkExactProgCount times exact ProgCount on inputs shaped like the
// calls of the benchmark's batch-indep workload: 2 to 4 preference axes,
// about 340 cells and about 60 dominators spread over the region. One op is
// a pass over 64 such inputs, each state's scratch grown beforehand, so
// even -benchtime 1x reads warm calls; ns/call is the mean per input.
// "table" is exactProgCount, "reference" the enumeration the test compares
// it with.
//
//	go test -run '^$' -bench ExactProgCount ./internal/core
func BenchmarkExactProgCount(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	type progCase struct {
		st    *state
		rc    *region.Region
		pref  preference.Subspace
		doms  []*region.Region
		cells int64
	}
	cases := make([]progCase, 64)
	for c := range cases {
		nd := 2 + rng.Intn(3)
		pref := preference.SubspaceFromMask(1<<uint(nd) - 1)
		ext := make([]int, nd)
		side := math.Pow(340, 1/float64(nd))
		for i := range ext {
			ext[i] = max(1, int(side*(0.6+0.8*rng.Float64())+0.5))
		}
		sp, rc, base, at := progGrid(rng, ext)
		doms := make([]*region.Region, 45+rng.Intn(30))
		for j := range doms {
			rf := &region.Region{Lo: make([]float64, nd)}
			for k := range rf.Lo {
				rf.Lo[k] = at(k, base[k]+rng.Intn(ext[k]+1)-1)
			}
			doms[j] = rf
		}
		st := &state{space: sp, clock: metrics.NewClock()}
		cells := sp.CellCount(rc, pref)
		st.exactProgCount(rc, pref, doms, cells)
		cases[c] = progCase{st, rc, pref, doms, cells}
	}
	run := func(b *testing.B, count func(c progCase) float64) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range cases {
				progSink = count(c)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cases)), "ns/call")
	}
	b.Run("table", func(b *testing.B) {
		run(b, func(c progCase) float64 { return c.st.exactProgCount(c.rc, c.pref, c.doms, c.cells) })
	})
	b.Run("reference", func(b *testing.B) {
		run(b, func(c progCase) float64 { return c.st.referenceExactProgCount(c.rc, 0, c.pref, c.doms) })
	})
}

var progSink float64
