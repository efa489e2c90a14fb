package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"caqe/internal/contract"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/region"
)

// referenceExactProgCount is exactProgCount as it read before it kept the
// cell corner per axis and the dominators' corners in a flat scratch: every
// dominator's best corner, in list order, recomputing the cell corner on
// every axis it reads.
func (st *state) referenceExactProgCount(rlo, rhi []float64, pref preference.Subspace, doms [][]float64) float64 {
	lo := make([]int, len(pref))
	hi := make([]int, len(pref))
	for i, k := range pref {
		lo[i] = int(math.Floor((rlo[k] - st.space.GridLo[k]) / st.space.GridStep[k]))
		hi[i] = int(math.Floor((rhi[k] - st.space.GridLo[k]) / st.space.GridStep[k]))
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
				corner := st.space.GridLo[k] + float64(float64(coord[i])*st.space.GridStep[k])
				if rf[k] > corner {
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

// listForm turns a list of dominators' best corners into the set form
// exactProgCount reads, reusing the buffers set and corners: member i is
// the list's i-th entry, its corner row i of the table. Duplicates in the
// list stay separate members.
func listForm(set region.Bits, corners []float64, doms [][]float64) (region.Bits, []float64) {
	n := (len(doms) + 63) / 64
	set = slices.Grow(set[:0], n)[:n]
	clear(set)
	corners = corners[:0]
	for i, rf := range doms {
		set.Set(i)
		corners = append(corners, rf...)
	}
	return set, corners
}

// referenceProgCount's list form, reused as the list path reused its
// scratch.
var (
	refSet     region.Bits
	refCorners []float64
)

// referenceProgCount is progCount as it read over dominator lists, before
// the corner table and the kept values: the volume estimate folds
// DominatedFraction over the list's corners, the exact count runs on
// the list's set form.
func (st *state) referenceProgCount(ri, qi int, doms []int) (prog, total float64) {
	pref := st.w.Queries[qi].Pref
	lo, hi := st.space.LoRow(ri), st.space.HiRow(ri)
	cells := st.space.CellCount(lo, hi, pref)
	total = float64(cells)
	if len(doms) == 0 {
		return total, total
	}
	corners := make([][]float64, len(doms))
	for i, fi := range doms {
		corners[i] = st.space.LoRow(fi)
	}
	if cells <= exactProgCountCap {
		refSet, refCorners = listForm(refSet, refCorners, corners)
		return st.exactProgCount(lo, hi, pref, refSet, refCorners, cells), total
	}
	free := 1.0
	for _, corner := range corners {
		free *= 1 - region.DominatedFraction(pref, lo, hi, corner)
		if free <= 0 {
			return 0, total
		}
	}
	return free * total, total
}

// referenceCSM is csm on the list path: the dominator lists doms, per
// query, and referenceProgCount, every query valued as csm values it.
func (st *state) referenceCSM(ri int, doms [][]int) float64 {
	at := st.finishAt(st.costEstimate(ri))
	total := 0.0
	alive := st.space.Regions[ri].Alive
	for qi := alive.Next(0); qi >= 0; qi = alive.Next(qi + 1) {
		est := 0.0
		if prog, cells := st.referenceProgCount(ri, qi, doms[qi]); cells > 0 {
			est = (prog / cells) * st.cardinality(ri, qi)
		}
		if st.e.opt.DisableContractBenefit {
			total += est
			continue
		}
		total += float64(st.weights[qi] * est * contract.ExpectedUtilityAt(st.w.Queries[qi].Contract, at))
	}
	return total
}

// checkProgCounts scores every live region of st as csm does and fails
// unless, for every query the region serves, progCount's value (a kept one
// where its record is current) equals freshProgCount's and the list
// path's bit for bit, with the same cell operations, and csm equals
// referenceCSM. Everything is charged to scratch clocks. It returns how
// many values were kept, and how many records of an older generation saw
// as many dominators: those only the generation check turns away.
func checkProgCounts(t *testing.T, label string, st *state) (kept, stale int) {
	t.Helper()
	clock := st.clock
	defer func() { st.clock = clock }()
	charged := func(f func() float64) (float64, int64) {
		st.clock = metrics.NewClock()
		v := f()
		return v, st.clock.Counters().CellOps
	}
	for ri, rc := range st.space.Regions {
		if rc.Alive == 0 {
			continue
		}
		st.clock = metrics.NewClock()
		lists := st.referenceDominators(ri)
		sets := st.dominatorsByQuery(ri)
		for qi := rc.Alive.Next(0); qi >= 0; qi = rc.Alive.Next(qi + 1) {
			pref := st.w.Queries[qi].Pref
			doms := sets[qi]
			n := int32(doms.Count())
			if k := *st.keptProg(ri, qi); n > 0 && k.n == n {
				if k.gen == st.gen {
					kept++
				} else {
					stale++
				}
			}
			got, gotOps := charged(func() float64 { prog, _ := st.progCount(ri, qi, doms); return prog })
			fresh, freshOps := charged(func() float64 {
				lo, hi := st.space.LoRow(ri), st.space.HiRow(ri)
				cells := st.space.CellCount(lo, hi, pref)
				if n == 0 {
					return float64(cells)
				}
				return st.freshProgCount(lo, hi, pref, doms, cells)
			})
			list, listOps := charged(func() float64 { prog, _ := st.referenceProgCount(ri, qi, lists[qi]); return prog })
			if math.Float64bits(got) != math.Float64bits(fresh) || gotOps != freshOps {
				t.Fatalf("%s: region %d, query %d (%d dominators): ProgCount %v charging %d, fresh %v charging %d", label, ri, qi, n, got, gotOps, fresh, freshOps)
			}
			if math.Float64bits(fresh) != math.Float64bits(list) || freshOps != listOps {
				t.Fatalf("%s: region %d, query %d (%d dominators): ProgCount %v charging %d, list path %v charging %d", label, ri, qi, n, fresh, freshOps, list, listOps)
			}
		}
		got, gotOps := charged(func() float64 { return st.csm(ri) })
		want, wantOps := charged(func() float64 { return st.referenceCSM(ri, st.referenceDominators(ri)) })
		if math.Float64bits(got) != math.Float64bits(want) || gotOps != wantOps {
			t.Fatalf("%s: region %d: csm %v charging %d, list path %v charging %d", label, ri, got, gotOps, want, wantOps)
		}
	}
	return kept, stale
}

// TestProgCountReuseMatchesFresh: at every point of checkSchedules' batch
// runs and random Exec schedules, where Admit, Cancel, Seal, Append and
// Delete grow the plan, move corners, revive regions and rebind query
// slots, every live region's ProgCount for every query it serves equals a
// fresh one and the list path's bit for bit, with the same charge — kept
// values included, from the run's own CSM evaluations and from earlier
// checks of the same generation — and so does its CSM.
func TestProgCountReuseMatchesFresh(t *testing.T) {
	kept, stale := 0, 0
	const seeds = 12
	moved, grown := checkSchedules(t, seeds, func(label string, st *state) {
		k, s := checkProgCounts(t, label, st)
		kept, stale = kept+k, stale+s
	})
	t.Logf("%d values kept, %d records of an older generation with as many dominators; %d appends moved a corner, %d admissions and appends added regions", kept, stale, moved, grown)
	if kept < 10000 || stale < 100 || moved == 0 || grown == 0 {
		t.Fatal("too little coverage")
	}
}

// progGrid draws a grid on len(ext) axes and a region's box lo..hi on it
// spanning about ext[k] cells along axis k, a single cell being of no width
// half the time. at(k, c) is a value on the grid line c cells up axis k, one
// ulp off it, or a random fraction into that cell; base[k] is the box's
// first cell on axis k.
func progGrid(rng *rand.Rand, ext []int) (sp *region.Space, lo, hi []float64, base []int, at func(k, c int) float64) {
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
	lo, hi = make([]float64, nd), make([]float64, nd)
	base = make([]int, nd)
	for k := 0; k < nd; k++ {
		base[k] = rng.Intn(4)
		lo[k] = at(k, base[k])
		hi[k] = lo[k]
		if ext[k] > 1 || rng.Intn(2) == 0 {
			hi[k] = max(lo[k], at(k, base[k]+ext[k]-1))
		}
	}
	return sp, lo, hi, base, at
}

// TestExactProgCountMatchesReference: on random grids, regions and
// dominator lists, exactProgCount on the list's set form (listForm) returns
// the reference's count and charges
// the same cell operations. The regions span 1 to 512 cells
// (exactProgCountCap) on 1 to 5 axes, some of them of no width. The lists
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
		sp, lo, hi, base, at := progGrid(rng, ext)
		mode := rng.Intn(3)
		var pool [][]float64
		for n := 1 + rng.Intn(8); n > 0; n-- {
			rf := make([]float64, nd)
			for k := range rf {
				if rng.Intn(12) == 0 {
					rf[k] = specials[rng.Intn(len(specials))]
				} else {
					rf[k] = at(k, base[k]+rng.Intn(ext[k]+2)-1)
				}
			}
			if mode == 1 { // beyond the region's last cell on one axis
				k := pref[rng.Intn(len(pref))]
				rf[k] = math.Inf(1)
				if rng.Intn(2) == 0 {
					rf[k] = at(k, base[k]+ext[k]+rng.Intn(2))
				}
			}
			pool = append(pool, rf)
		}
		doms := make([][]float64, 1+rng.Intn(12))
		for i := range doms {
			doms[i] = pool[rng.Intn(len(pool))]
		}
		if mode == 2 { // at or below the region's first corner on every axis
			rf := make([]float64, nd)
			for k := range rf {
				rf[k] = sp.GridLo[k] + float64(base[k]-rng.Intn(2))*sp.GridStep[k]
				if rng.Intn(4) == 0 {
					rf[k] = specials[rng.Intn(len(specials))]
				}
				if rf[k] > sp.GridLo[k]+float64(base[k])*sp.GridStep[k] {
					rf[k] = math.Inf(-1) // a special above the corner
				}
			}
			doms = append(doms, rf)
		}
		rng.Shuffle(len(doms), func(i, j int) { doms[i], doms[j] = doms[j], doms[i] })

		ref := &state{space: sp, clock: metrics.NewClock()}
		fast.space = sp
		before := fast.clock.Counters().CellOps
		want := ref.referenceExactProgCount(lo, hi, pref, doms)
		set, corners := listForm(nil, nil, doms)
		got := fast.exactProgCount(lo, hi, pref, set, corners, sp.CellCount(lo, hi, pref))
		if got != want {
			t.Fatalf("trial %d: count %g, reference %g (box %v..%v, pref %v)", trial, got, want, lo, hi, pref)
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
// "table" is exactProgCount on the inputs' set form, "reference" the
// enumeration the test compares it with.
//
//	go test -run '^$' -bench ExactProgCount ./internal/core
func BenchmarkExactProgCount(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	type progCase struct {
		st      *state
		lo, hi  []float64
		pref    preference.Subspace
		doms    [][]float64
		set     region.Bits
		corners []float64
		cells   int64
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
		sp, lo, hi, base, at := progGrid(rng, ext)
		doms := make([][]float64, 45+rng.Intn(30))
		for j := range doms {
			rf := make([]float64, nd)
			for k := range rf {
				rf[k] = at(k, base[k]+rng.Intn(ext[k]+1)-1)
			}
			doms[j] = rf
		}
		st := &state{space: sp, clock: metrics.NewClock()}
		cells := sp.CellCount(lo, hi, pref)
		set, corners := listForm(nil, nil, doms)
		st.exactProgCount(lo, hi, pref, set, corners, cells)
		cases[c] = progCase{st, lo, hi, pref, doms, set, corners, cells}
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
		run(b, func(c progCase) float64 { return c.st.exactProgCount(c.lo, c.hi, c.pref, c.set, c.corners, c.cells) })
	})
	b.Run("reference", func(b *testing.B) {
		run(b, func(c progCase) float64 { return c.st.referenceExactProgCount(c.lo, c.hi, c.pref, c.doms) })
	})
}

var progSink float64
