package core

import (
	"math"
	"math/bits"
	"slices"

	"caqe/internal/contract"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/region"
)

// cmpPerResult is the cost model's expected number of skyline comparisons
// per join result.
const cmpPerResult = 4

// estimateSelectivities derives σ per join condition from one pass over the
// key histograms of the rows the join-group filter keeps for the
// condition's key columns: σ̂ = Σ_v n_R(v)·n_T(v) / (|R_k|·|T_k|), the exact
// probability that a random pair of those rows joins. The left histogram
// depends only on the key column, so workloads whose join conditions share
// a left key build it once and reuse it.
func estimateSelectivities(jcs []join.EquiJoin, f *joinFilter) []float64 {
	out := make([]float64, len(jcs))
	r, t := f.rels[0], f.rels[1]
	type hist struct {
		n      int
		counts map[int64]int
	}
	hists := make(map[int]hist)
	for j, jc := range jcs {
		histR, ok := hists[jc.LeftKey]
		if !ok {
			histR.counts = make(map[int64]int)
			for i := range r.Tuples {
				if f.keep[0][i]&(1<<uint(jc.LeftKey)) != 0 {
					histR.n++
					histR.counts[r.At(i).Key(jc.LeftKey)]++
				}
			}
			hists[jc.LeftKey] = histR
		}
		nT, matches := 0, 0.0
		for i := range t.Tuples {
			if f.keep[1][i]&(1<<uint(jc.RightKey)) != 0 {
				nT++
				matches += float64(histR.counts[t.At(i).Key(jc.RightKey)])
			}
		}
		if histR.n > 0 && nT > 0 {
			out[j] = matches / (float64(histR.n) * float64(nT))
		}
	}
	return out
}

// buchta implements Eq. 9, Buchta's estimate of the expected skyline size
// of x uniform points in d dimensions: ln(x)^{d-1} / (d-1)!. The result is
// clamped to [0, x].
func buchta(x float64, d int) float64 {
	if x <= 1 {
		return math.Max(0, x)
	}
	est := math.Pow(math.Log(x), float64(d-1)) / factorial(d-1)
	return math.Min(est, x)
}

func factorial(n int) float64 {
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
	}
	return f
}

// sigmaFor returns the estimated join selectivity applicable to query qi.
func (st *state) sigmaFor(qi int) float64 {
	return st.jcSigma[st.w.Queries[qi].JC]
}

// costEstimate predicts t_c, the virtual time needed for the tuple-level
// processing of a region: the join probes of every relevant join condition
// plus the materialization and skyline handling of the expected results.
func (st *state) costEstimate(ri int) float64 {
	t := 0.0
	for j := range st.w.JoinConds {
		if st.jcQueries[j]&st.space.Regions[ri].Alive == 0 {
			continue
		}
		left, right := st.joinRows(ri, j)
		pairs := float64(len(left)) * float64(len(right))
		results := st.jcSigma[j] * pairs
		t += float64(pairs*metrics.CostJoinProbe) +
			float64(results*(metrics.CostJoinResult+cmpPerResult*metrics.CostSkylineCmp))
	}
	return t
}

// cardinality implements Eq. 9 for region ri and query qi: the expected
// number of skyline results among the region's join output.
func (st *state) cardinality(ri, qi int) float64 {
	left, right := st.joinRows(ri, st.w.Queries[qi].JC)
	x := st.sigmaFor(qi) * float64(len(left)) * float64(len(right))
	return buchta(x, len(st.w.Queries[qi].Pref))
}

// dominatorsByQuery finds the regions whose best corner could dominate at
// least one output cell of region ri, as one set per query of its Alive
// set: probing the index of every best corner with ri's upper bounds, the
// regions live for the query that the probe finds Weak in its preference.
// The charge is one cell operation per live region other than ri that
// serves a query of its Alive set, as testing region by region would make
// (DESIGN.md §13). The sets are the state's reused scratch, valid until the
// next call; a query outside the Alive set keeps a stale one.
func (st *state) dominatorsByQuery(ri int) []region.Bits {
	for len(st.domSets) < len(st.w.Queries) {
		st.domSets = append(st.domSets, nil)
	}
	st.probe.Below(st.live.corners(), st.space.HiRow(ri))
	_, serving := st.scratchSets()
	alive := st.space.Regions[ri].Alive
	for qi := alive.Next(0); qi >= 0; qi = alive.Next(qi + 1) {
		st.domSets[qi] = slices.Grow(st.domSets[qi][:0], len(serving))[:len(serving)]
	}
	st.probe.WeakFold(st.domSets, serving, st.live.sets, alive, st.w.Queries)
	for qi := alive.Next(0); qi >= 0; qi = alive.Next(qi + 1) {
		st.domSets[qi].Unset(ri)
	}
	serving.Unset(ri)
	st.clock.CountCellOp(int64(serving.Count()))
	return st.domSets
}

// progKept is the record of a region's last ProgCount for one query slot:
// the generation it was computed in, the number of dominators it saw, and
// its value. Within a generation a live set only loses members and no
// region's box moves, so a dominator set of the same size is the same set,
// and the value stands (DESIGN.md §13).
type progKept struct {
	gen  uint64
	n    int32
	prog float64
}

// progCount implements Definition 11: the number of region ri's output
// cells (in the query's preference subspace) not dominated by any live
// region that serves the same query, doms being those regions. A value kept
// from the same generation and as many dominators is returned again with
// the charge of computing it; otherwise freshProgCount computes it.
func (st *state) progCount(ri, qi int, doms region.Bits) (prog, total float64) {
	pref := st.w.Queries[qi].Pref
	lo, hi := st.space.LoRow(ri), st.space.HiRow(ri)
	cells := st.space.CellCount(lo, hi, pref)
	total = float64(cells)
	n := int32(doms.Count())
	if n == 0 {
		return total, total
	}
	k := st.keptProg(ri, qi)
	if k.gen == st.gen && k.n == n {
		if cells <= exactProgCountCap {
			st.clock.CountCellOp(cells)
		}
		return k.prog, total
	}
	prog = st.freshProgCount(lo, hi, pref, doms, cells)
	*k = progKept{gen: st.gen, n: n, prog: prog}
	return prog, total
}

// keptProg returns the ProgCount record of region ri for query slot qi,
// growing the records over the plan's regions and slots.
func (st *state) keptProg(ri, qi int) *progKept {
	for len(st.kept) <= qi {
		st.kept = append(st.kept, nil)
	}
	if k := st.kept[qi]; ri >= len(k) {
		st.kept[qi] = append(k, make([]progKept, len(st.space.Regions)-len(k))...)
	}
	return &st.kept[qi][ri]
}

// freshProgCount computes ProgCount, for a non-empty dominator set, of the
// region whose box is lo..hi, reading the dominators' best corners from the
// bounds table. Regions of at most exactProgCountCap cells are counted
// exactly over the output grid; larger ones use the volume-fraction
// estimate with the independence approximation for the union (see
// DESIGN.md), folded in ascending region order.
func (st *state) freshProgCount(lo, hi []float64, pref preference.Subspace, doms region.Bits, cells int64) float64 {
	if cells <= exactProgCountCap {
		return st.exactProgCount(lo, hi, pref, doms, st.space.BoxLo, cells)
	}
	// Volume estimate: fraction of the box not covered by the union of the
	// dominated sub-boxes.
	nd := len(lo)
	free := 1.0
	for w, word := range doms {
		for ; word != 0; word &= word - 1 {
			corner := st.space.BoxLo[(w<<6|bits.TrailingZeros64(word))*nd:]
			free *= 1 - region.DominatedFraction(pref, lo, hi, corner)
			if free <= 0 {
				return 0
			}
		}
	}
	return free * float64(cells)
}

// exactProgCountCap is the largest cell count progCount counts exactly.
const exactProgCountCap = 512

// exactProgCount counts the grid cells of the box lo..hi in the preference
// subspace whose lower corner no dominator's best corner weakly dominates;
// the dominators are the members of doms, region i's corner row i of the
// region-major table corners (len(lo) values a row), and cells is the box's
// CellCount there. A cell's corner GridLo[k] + coord·GridStep[k] does not
// fall as coord grows (GridStep > 0), so a dominator covers exactly the
// cells whose coordinate reaches its threshold on every axis (coverFrom).
// Along the widest axis, the row axis, the covered cells of a row are then a
// suffix, and the row's uncovered count is the least row threshold among the
// dominators whose other thresholds the row reaches. The table holds that
// least threshold per row for the dominators whose other thresholds equal
// the row's coordinates; a prefix minimum over each other axis extends it to
// all that the row reaches, and the count is the table's sum. One cell
// operation is charged per cell, as testing every cell did. doms is not
// empty: progCount answers an empty set itself.
func (st *state) exactProgCount(lo, hi []float64, pref preference.Subspace, doms region.Bits, corners []float64, cells int64) float64 {
	st.clock.CountCellOp(cells)
	g := st.space
	n, nd := len(pref), len(lo)
	axes := slices.Grow(st.progAxes[:0], 3*n)[:3*n]
	first, ext, stride := axes[:n], axes[n:2*n], axes[2*n:]
	row := 0
	for i, k := range pref {
		first[i] = int(math.Floor((lo[k] - g.GridLo[k]) / g.GridStep[k]))
		last := int(math.Floor((hi[k] - g.GridLo[k]) / g.GridStep[k]))
		ext[i] = max(last-first[i]+1, 1)
		if ext[i] > ext[row] {
			row = i
		}
	}
	size := 1
	for i := range pref {
		if i != row {
			stride[i] = size
			size *= ext[i]
		}
	}
	axes = slices.Grow(axes, size)[:3*n+size]
	st.progAxes = axes
	table := axes[3*n:]
	for j := range table {
		table[j] = ext[row]
	}
	for w, word := range doms {
	next:
		for ; word != 0; word &= word - 1 {
			corner := corners[(w<<6|bits.TrailingZeros64(word))*nd:]
			at, t := 0, 0
			for i, k := range pref {
				c := coverFrom(corner[k], g.GridLo[k], g.GridStep[k], first[i], ext[i])
				switch {
				case c == ext[i]:
					continue next // covers no cell of the box
				case i == row:
					t = c
				default:
					at += c * stride[i]
				}
			}
			table[at] = min(table[at], t)
		}
	}
	for i := range pref {
		if i == row {
			continue
		}
		s, span := stride[i], stride[i]*ext[i]
		for b := 0; b < size; b += span {
			for j := b + s; j < b+span; j++ {
				table[j] = min(table[j], table[j-s])
			}
		}
	}
	count := 0
	for _, t := range table {
		count += t
	}
	return float64(count)
}

// coverFrom returns the first of the ext grid coordinates from lo at which
// v no longer lies above the cell corner base + coord·step, counted from
// lo, or ext if v lies above every one. The corners do not fall as coord
// grows, so the answer is a boundary: a Ceil guess, walked to it with the
// exact test. A NaN v lies above none, as `>` has it.
func coverFrom(v, base, step float64, lo, ext int) int {
	c := 0
	if guess := math.Ceil((v-base)/step) - float64(lo); guess >= float64(ext) {
		c = ext
	} else if guess > 0 {
		c = int(guess)
	}
	for c > 0 && !(v > base+float64(float64(lo+c-1)*step)) {
		c--
	}
	for c < ext && v > base+float64(float64(lo+c)*step) {
		c++
	}
	return c
}

// progEst implements Eq. 10: the expected number of results of region ri
// that can be progressively output for query qi right after its processing.
func (st *state) progEst(ri, qi int, doms region.Bits) float64 {
	prog, total := st.progCount(ri, qi, doms)
	if total <= 0 {
		return 0
	}
	return (prog / total) * st.cardinality(ri, qi)
}

// rateEstimator tracks the measured processing rate — counted work units
// per real second — of a wall-clock run. Samples accumulate until they span
// a measurable stretch of real time (clock granularity makes shorter deltas
// noise), then fold into an exponential moving average. Virtual runs never
// touch it: there, counted work is the clock and the rate is 1 by
// construction.
type rateEstimator struct {
	accWork float64 // work units since the EWMA last absorbed a sample
	accSec  float64 // real seconds since the EWMA last absorbed a sample
	ewma    float64 // work units per real second (0 = no sample yet)
}

// minRateSampleSec is the shortest real-time span a rate sample may cover;
// shorter deltas keep accumulating.
const minRateSampleSec = 50e-6

// rateEWMAAlpha weights new samples in the moving average.
const rateEWMAAlpha = 0.3

func (r *rateEstimator) observe(dWork, dSec float64) {
	if dWork <= 0 && dSec <= 0 {
		return
	}
	r.accWork += dWork
	r.accSec += dSec
	if r.accSec < minRateSampleSec {
		return
	}
	sample := r.accWork / r.accSec
	if r.ewma == 0 {
		r.ewma = sample
	} else {
		r.ewma += float64(rateEWMAAlpha * (sample - r.ewma))
	}
	r.accWork, r.accSec = 0, 0
}

// estimate returns the current rate, falling back to the nominal
// "one work unit per virtual microsecond" calibration until the first
// measurable sample lands.
func (r *rateEstimator) estimate() float64 {
	if r.ewma > 0 {
		return r.ewma
	}
	return metrics.VirtualSecond
}

// finishAt converts a region's cost estimate t_c (in work units) into the
// absolute time, in contract seconds, at which the region's tuple-level
// processing would complete if started now. In virtual mode this is the
// exact Eq. 8 expression (t_curr + t_c)/VirtualSecond — byte-identical to
// builds without wall support. In wall mode the horizon is t_c divided by
// the measured processing rate, added to the real elapsed time.
func (st *state) finishAt(tc float64) float64 {
	if st.clock.Wall() {
		return st.clock.Now()/metrics.VirtualSecond + tc/st.rate.estimate()
	}
	return (st.clock.Now() + tc) / metrics.VirtualSecond
}

// csm implements Eq. 8, the Cumulative Satisfaction Metric of a candidate
// region: the weighted sum over served queries of the expected progressive
// output, valued at the utility a tuple would have when the region's
// tuple-level processing completes (t_curr + t_c).
func (st *state) csm(ri int) float64 {
	tc := st.costEstimate(ri)
	at := st.finishAt(tc)
	doms := st.dominatorsByQuery(ri)
	total := 0.0
	alive := st.space.Regions[ri].Alive
	for qi := alive.Next(0); qi >= 0; qi = alive.Next(qi + 1) {
		est := st.progEst(ri, qi, doms[qi])
		if st.e.opt.DisableContractBenefit {
			total += est // count-driven: the ProgXe+ strategy
			continue
		}
		u := contract.ExpectedUtilityAt(st.w.Queries[qi].Contract, at)
		total += float64(st.weights[qi] * est * u)
	}
	return total
}
