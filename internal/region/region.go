// Package region implements the abstract multi-query output space of §5:
// output *regions* produced by the coarse-level join of input cell pairs
// (§5.1), the coarse-level skyline that prunes regions guaranteed not to
// contribute to any query (§5.2), region dominance (Definition 8), region
// query lineage RQL, and the output-space grid used for progressive
// emission decisions and the ProgCount estimate (§5.3, §6).
package region

import (
	"math"
	"math/bits"
	"slices"

	"caqe/internal/metrics"
	"caqe/internal/partition"
	"caqe/internal/preference"
	"caqe/internal/skycube"
	"caqe/internal/workload"
)

// Region is one d-dimensional region of the output space: the image of a
// pair of input cells under the workload's mapping functions, annotated
// with the queries it serves. A region is its index in Space.Regions.
type Region struct {
	RCell *partition.Cell
	TCell *partition.Cell

	// RQL is the region query lineage: every query whose join signature
	// test passed for this cell pair (§5.1).
	RQL skycube.QSet
	// Alive is RQL minus queries for which the coarse-level skyline proved
	// the region cannot contribute (§5.2); an empty set marks a done region
	// (joined, discarded or retired). Once execution starts, only core's
	// liveness type writes it, keeping the live sets, the queue and the
	// corner index in step: dominating results shrink it, processing
	// empties it, and admissions and mutations revive it.
	Alive skycube.QSet
	// JCPass is the bitmask of join-condition indices whose signature test
	// passed for this cell pair, among the conditions tested so far (see
	// Space.TestedJC). It lets an online session decide whether a region
	// can serve a query admitted mid-run.
	JCPass uint64
}

// Space is the abstract multi-query output space: all surviving regions,
// held by value and addressed by index, their boxes and the output grid
// geometry. BoxLo and BoxHi are the bounds table, the one home of every box:
// row i, nd = len(W.OutDims) values, holds region i's bounds (LoRow, HiRow).
// Only this package writes it: Bound, and coarsePrune's compaction. A row,
// like a pointer into Regions, is valid until the plan gains a region
// (ExtendJC, Retest): no caller holds one across those calls.
type Space struct {
	W            *workload.Workload
	Regions      []Region
	BoxLo, BoxHi []float64

	GridLo   []float64 // global lower bound of the output space
	GridStep []float64 // grid cell extent per output dimension

	// RCells and TCells are the input leaf cells the space was built from,
	// retained so an online session can extend the space when a query
	// admitted mid-run references a join condition no earlier query used.
	RCells, TCells []*partition.Cell
	// TestedJC is the bitmask of join-condition indices whose signature
	// tests have run over every cell pair (at build time: the conditions
	// referenced by at least one query; ExtendJC adds the rest on demand).
	TestedJC uint64

	// pairs: entry rc·len(TCells)+tc is the region over cells (rc, tc), or -1.
	pairs []int32
}

// Options configures MQLA.
type Options struct {
	// GridResolution is the number of grid cells per output dimension
	// (default 64) spanning the global output bounds.
	GridResolution int
	// KeepPruned retains coarse-pruned regions (Alive == 0) at the tail of
	// the region list instead of discarding them, preserving their geometry
	// for queries admitted mid-run by an online session. Surviving regions
	// keep exactly the IDs and order a pruning build would assign, and the
	// clock charges are identical, so execution over the live prefix is
	// byte-identical to a KeepPruned-off build.
	KeepPruned bool
}

// BuildSpace performs the coarse-level join of §5.1: every pair of input
// leaf cells is tested per join condition by signature intersection; pairs
// serving at least one query become regions with exact output bounds
// derived by interval arithmetic over the mapping functions. It then runs
// the coarse-level skyline of §5.2, discarding regions that cannot
// contribute to any query. Cell-level work is charged to the clock.
func BuildSpace(w *workload.Workload, rcells, tcells []*partition.Cell, opt Options, clock *metrics.Clock) (*Space, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	res := opt.GridResolution
	if res <= 0 {
		res = 64
	}

	s := &Space{W: w, RCells: rcells, TCells: tcells}
	s.reindex()
	// Queries grouped by join condition so each signature test is shared.
	jcQueries := make([]skycube.QSet, len(w.JoinConds))
	for j := range w.JoinConds {
		if jcQueries[j] = w.QueriesWithJC(j); jcQueries[j] != 0 {
			s.TestedJC |= 1 << uint(j)
		}
	}
	for _, rc := range rcells {
		for _, tc := range tcells {
			ri := s.joinPair(rc, tc, s.TestedJC, clock)
			if ri < 0 {
				if clock != nil {
					clock.CountRegionPruned()
				}
				continue
			}
			reg := &s.Regions[ri]
			for j := range w.JoinConds {
				if reg.JCPass&(1<<uint(j)) != 0 {
					reg.RQL |= jcQueries[j]
				}
			}
			reg.Alive = reg.RQL
		}
	}
	s.boxNew(0)

	s.initGrid(res)
	s.coarsePrune(clock, opt.KeepPruned)
	return s, nil
}

// joinPair runs the coarse-level join of one cell pair: the signature test
// of every condition in jcs the pair does not already pass (a signature
// grows until a delete rebuilds it, and Withdraw follows every rebuild, so a
// recorded pass still holds), each charged to the clock as one cell
// operation plus the intersection probes. A pair whose first test passes
// gains its region, appended at the tail with empty lineage; its caller
// then gives it its box (boxNew). The pair's region, or -1, is returned.
func (s *Space) joinPair(rc, tc *partition.Cell, jcs uint64, clock *metrics.Clock) int {
	at := rc.ID*len(s.TCells) + tc.ID
	ri := int(s.pairs[at])
	for j, jc := range s.W.JoinConds {
		jbit := uint64(1) << uint(j)
		if jcs&jbit == 0 || (ri >= 0 && s.Regions[ri].JCPass&jbit != 0) {
			continue
		}
		if clock != nil {
			clock.CountCellOp(1)
		}
		if !rc.Sigs[jc.LeftKey].Intersects(tc.Sigs[jc.RightKey], clock) {
			continue
		}
		if ri < 0 {
			ri = len(s.Regions)
			s.Regions = append(s.Regions, Region{RCell: rc, TCell: tc})
			s.pairs[at] = int32(ri)
		}
		s.Regions[ri].JCPass |= jbit
	}
	return ri
}

// reindex rebuilds the pair index from the cell lists and Regions.
func (s *Space) reindex() {
	n := len(s.RCells) * len(s.TCells)
	s.pairs = slices.Grow(s.pairs[:0], n)[:n]
	for i := range s.pairs {
		s.pairs[i] = -1
	}
	for i, r := range s.Regions {
		s.pairs[r.RCell.ID*len(s.TCells)+r.TCell.ID] = int32(i)
	}
}

// PairIndex returns the pair index (see pairs), for reading.
func (s *Space) PairIndex() []int32 { return s.pairs }

// AddCell appends a cell, its ID its position, to the R cells, or the T
// cells when onT is set, and re-strides the pair index over it.
func (s *Space) AddCell(c *partition.Cell, onT bool) {
	if onT {
		s.TCells = append(s.TCells, c)
	} else {
		s.RCells = append(s.RCells, c)
	}
	s.reindex()
}

// boxNew grows the bounds table once over the regions joinPair appended
// from index from on, and computes their boxes.
func (s *Space) boxNew(from int) {
	n := len(s.Regions) * len(s.W.OutDims)
	s.BoxLo, s.BoxHi = slices.Grow(s.BoxLo, n-len(s.BoxLo))[:n], slices.Grow(s.BoxHi, n-len(s.BoxHi))[:n]
	for i := from; i < len(s.Regions); i++ {
		s.Bound(i)
	}
}

// Bound computes region i's box from its cells' boxes by interval
// arithmetic over the mapping functions.
func (s *Space) Bound(i int) {
	r, lo, hi := &s.Regions[i], s.LoRow(i), s.HiRow(i)
	for k, f := range s.W.OutDims {
		lo[k], hi[k] = f.Bounds(r.RCell.Lo, r.RCell.Hi, r.TCell.Lo, r.TCell.Hi)
	}
}

// LoRow returns region i's lower bounds, its best corner.
func (s *Space) LoRow(i int) []float64 { return row(s.BoxLo, i, len(s.W.OutDims)) }

// HiRow returns region i's upper bounds.
func (s *Space) HiRow(i int) []float64 { return row(s.BoxHi, i, len(s.W.OutDims)) }

func row(table []float64, i, nd int) []float64 { return table[i*nd : (i+1)*nd : (i+1)*nd] }

// initGrid derives the global output bounds and grid steps.
func (s *Space) initGrid(res int) {
	nd := len(s.W.OutDims)
	s.GridLo = make([]float64, nd)
	s.GridStep = make([]float64, nd)
	if len(s.Regions) == 0 {
		for k := range s.GridStep {
			s.GridStep[k] = 1
		}
		return
	}
	hi := make([]float64, nd)
	for k := 0; k < nd; k++ {
		s.GridLo[k] = math.Inf(1)
		hi[k] = math.Inf(-1)
	}
	for j := range s.BoxLo {
		k := j % nd
		if s.BoxLo[j] < s.GridLo[k] {
			s.GridLo[k] = s.BoxLo[j]
		}
		if s.BoxHi[j] > hi[k] {
			hi[k] = s.BoxHi[j]
		}
	}
	for k := 0; k < nd; k++ {
		ext := hi[k] - s.GridLo[k]
		if ext <= 0 {
			ext = 1
		}
		s.GridStep[k] = ext / float64(res)
	}
}

// coarsePrune implements the coarse-level skyline (§5.2): for every query,
// a region fully dominated in the query's preference by any other region
// serving that query cannot contribute a single result and loses the query
// from its Alive set. Full dominance is transitive within a subspace, so
// filtering against all serving regions (dominated or not) is exact.
// Regions left with an empty Alive set are discarded.
//
// o fully dominates r in q's preference when o.Hi weakly dominates r.Lo
// there with one strict dimension: probing the index of every region's Hi
// with r.Lo, r's killers for q are the regions serving q whose Hi the probe
// finds weakly below r.Lo on every dimension of q's preference and strictly
// on one. The charge is that of testing, in index order, the
// regions o ≠ r whose lineage meets r's, one cell-level operation each,
// until r.Alive is empty (DESIGN.md §13): up to the highest of the queries'
// first killers when every query dies, all of them when one survives.
//
// With keepPruned, dead regions are moved to the tail of the list (indices
// after every survivor) instead of discarded; survivors keep the exact
// indices of a discarding build and the pruning charges are identical. Each
// box moves with its region, and the pair index is rewritten.
func (s *Space) coarsePrune(clock *metrics.Clock, keepPruned bool) {
	m := len(s.Regions)
	ranks := NewCornerRanks(m, len(s.W.OutDims), s.HiRow)
	// serving[q]: the regions whose lineage holds q.
	serving := make([]Bits, len(s.W.Queries))
	for q := range serving {
		serving[q] = NewBits(m)
	}
	for i, r := range s.Regions {
		for q := r.RQL.Next(0); q >= 0; q = r.RQL.Next(q + 1) {
			serving[q].Set(i)
		}
	}
	var probe Probe
	nd := len(s.W.OutDims)
	overlap, overRQL, others := NewBits(m), skycube.QSet(0), 0 // the regions whose lineage meets overRQL, less one
	var charged int64
	for i, r := range s.Regions {
		if r.Alive == 0 {
			continue
		}
		if r.RQL != overRQL {
			clear(overlap)
			for q := r.RQL.Next(0); q >= 0; q = r.RQL.Next(q + 1) {
				for w, set := range serving[q] {
					overlap[w] |= set
				}
			}
			overRQL, others = r.RQL, overlap.Count()-1
		}
		// A query one of whose dimensions has no corner at or below the
		// probe's has no killer; the others fold the probe's sets in one
		// pass over the words, until each has its first killer.
		probe.rank(ranks, s.LoRow(i))
		alive, pending := r.Alive, skycube.QSet(0)
		for q := alive.Next(0); q >= 0; q = alive.Next(q + 1) {
			pref := s.W.Queries[q].Pref
			killable := len(pref) > 0
			for _, k := range pref {
				killable = killable && probe.le[k] > 0
			}
			if killable {
				pending = pending.Add(q)
			}
		}
		if pending == 0 {
			charged += int64(others)
			continue
		}
		probe.fill(ranks, false)
		n := 0 // the overlap's members in the words passed
		for w := 0; w < probe.words && pending != 0; w++ {
			weak, strict := probe.weak[w*nd:(w+1)*nd], probe.strict[w*nd:(w+1)*nd]
			self := uint64(0)
			if i>>6 == w {
				self = 1 << uint(i&63)
			}
			last := 0
			for b := uint64(pending); b != 0; b &= b - 1 {
				q := bits.TrailingZeros64(b)
				kill, st := serving[q][w]&^self, uint64(0)
				for _, k := range s.W.Queries[q].Pref {
					kill &= weak[k]
					st |= strict[k]
				}
				if kill &= st; kill != 0 {
					alive &^= 1 << uint(q)
					pending &^= 1 << uint(q)
					last = max(last, bits.TrailingZeros64(kill))
				}
			}
			over := overlap[w] &^ self
			if alive == 0 { // the overlap up to the highest first killer, in this word
				n += bits.OnesCount64(over << uint(63-last))
				break
			}
			n += bits.OnesCount64(over)
		}
		if alive != 0 {
			n = others
		}
		charged += int64(n)
		s.Regions[i].Alive = alive
	}
	if clock != nil {
		clock.CountCellOp(charged)
	}
	var pruned []Region
	var tailLo, tailHi []float64 // the pruned regions' rows
	kept := 0
	for i, r := range s.Regions {
		if r.Alive != 0 {
			copy(s.LoRow(kept), s.LoRow(i))
			copy(s.HiRow(kept), s.HiRow(i))
			s.Regions[kept] = r
			kept++
			continue
		}
		if clock != nil {
			clock.CountRegionPruned()
		}
		if keepPruned {
			pruned = append(pruned, r)
			tailLo, tailHi = append(tailLo, s.LoRow(i)...), append(tailHi, s.HiRow(i)...)
		}
	}
	n := kept * len(s.W.OutDims)
	s.BoxLo, s.BoxHi = append(s.BoxLo[:n], tailLo...), append(s.BoxHi[:n], tailHi...)
	s.Regions = append(s.Regions[:kept], pruned...)
	s.reindex()
}

// ExtendJC runs the coarse-level join for one join condition that was not
// tested when the space was built — a query admitted mid-run references it.
// Every retained cell pair gets the signature test, charged to the clock
// exactly as at build time; passing pairs mark JCPass on their existing
// region, or, when the pair has no region yet, gain a fresh one appended at
// the tail with empty lineage (the admitting session re-opens it for the
// new query). Grid geometry is left untouched so emission decisions for
// pre-existing queries cannot shift.
func (s *Space) ExtendJC(j int, clock *metrics.Clock) {
	if s.TestedJC&(1<<uint(j)) != 0 {
		return
	}
	s.TestedJC |= 1 << uint(j)
	before := len(s.Regions)
	for _, rc := range s.RCells {
		for _, tc := range s.TCells {
			s.joinPair(rc, tc, 1<<uint(j), clock)
		}
	}
	s.boxNew(before)
}

// Retest re-runs the coarse-level join for leaf cells whose signatures
// grew (an append placed tuples in them): each cell of touched — R cell
// IDs, or T cell IDs when onT is set — in ascending order is paired with
// every cell of the opposite side over every condition tested so far. A
// pair that starts passing marks JCPass on its region or gains a fresh tail
// region exactly as in ExtendJC; the number of regions created is returned.
func (s *Space) Retest(touched Bits, onT bool, clock *metrics.Clock) int {
	before := len(s.Regions)
	cells, opp := s.RCells, s.TCells
	if onT {
		cells, opp = opp, cells
	}
	for ci := touched.Next(0); ci >= 0; ci = touched.Next(ci + 1) {
		for _, oc := range opp {
			rc, tc := cells[ci], oc
			if onT {
				rc, tc = oc, rc
			}
			s.joinPair(rc, tc, s.TestedJC, clock)
		}
	}
	s.boxNew(before)
	return len(s.Regions) - before
}

// Withdraw is Retest's counterpart for leaf cells whose signatures shrank (a
// delete rebuilt them from their live tuples): every region over a cell of
// touched — R cell IDs, or T cell IDs when onT is set — re-runs the signature
// test of each condition it passes, charged like any other, and loses the
// JCPass bit of one that fails. A pair whose only matches were deleted thus
// stops posing as a source of results: mutations no longer revive it, and an
// admission neither serves a query from it nor prunes another region against
// it. The region keeps its slot and cursors; joinPair re-tests a withdrawn
// condition on the next Retest of either cell.
func (s *Space) Withdraw(touched Bits, onT bool, clock *metrics.Clock) {
	for i := range s.Regions {
		reg := &s.Regions[i]
		c := reg.RCell
		if onT {
			c = reg.TCell
		}
		if !touched.Has(c.ID) {
			continue
		}
		for j, jc := range s.W.JoinConds {
			jbit := uint64(1) << uint(j)
			if reg.JCPass&jbit == 0 {
				continue
			}
			if clock != nil {
				clock.CountCellOp(1)
			}
			if !reg.RCell.Sigs[jc.LeftKey].Intersects(reg.TCell.Sigs[jc.RightKey], clock) {
				reg.JCPass &^= jbit
			}
		}
	}
}

// QueryDims holds, per output dimension k, the set of queries whose
// preference reads k. It resolves a corner pair once for every query at
// the same time — the coarse-level form of the paper's "comparisons along
// shared dimensions only once" (§4.1): one pass over the dimensions, and
// each query's verdict is a bit of the result.
type QueryDims []skycube.QSet

// NewQueryDims returns the query sets of queries over nd output dimensions.
func NewQueryDims(queries []workload.Query, nd int) QueryDims {
	u := make(QueryDims, nd)
	for qi, q := range queries {
		u.Bind(qi, q.Pref)
	}
	return u
}

// Bind makes slot qi read exactly the dimensions of pref: the slot's bit
// leaves every dimension, then joins pref's.
func (u QueryDims) Bind(qi int, pref preference.Subspace) {
	bit := skycube.QSet(0).Add(qi)
	for k := range u {
		u[k] &^= bit
	}
	for _, k := range pref {
		u[k] |= bit
	}
}

// Pair resolves the corner pair (a, b): notWeak is the union of the query
// sets of the dimensions where !(a[k] <= b[k]), strict that of the
// dimensions where a[k] < b[k]. So a weakly dominates b in query q's
// preference iff q ∉ notWeak, and dominates it iff q ∈ strict &^ notWeak.
// Read on (r.Hi, o.Lo) that is Definition 8's full dominance of o by r; on
// (r.Lo, o.Lo), best-corner dominance.
func (u QueryDims) Pair(a, b []float64) (notWeak, strict skycube.QSet) {
	a, b = a[:len(u)], b[:len(u)]
	for k, qs := range u {
		if !(a[k] <= b[k]) {
			notWeak |= qs
		} else if a[k] < b[k] {
			strict |= qs
		}
	}
	return notWeak, strict
}

// CellCount returns the number of grid cells the box lo..hi spans in
// subspace v (Definition 10's CellCount), saturating at 1<<62.
func (s *Space) CellCount(lo, hi []float64, v preference.Subspace) int64 {
	n := int64(1)
	for _, k := range v {
		span := int64(math.Floor((hi[k]-s.GridLo[k])/s.GridStep[k])) -
			int64(math.Floor((lo[k]-s.GridLo[k])/s.GridStep[k])) + 1
		if span < 1 {
			span = 1
		}
		if n > (1<<62)/span {
			return 1 << 62
		}
		n *= span
	}
	return n
}

// DominatedFraction estimates the fraction of the volume of the box lo..hi
// on the axes of v that is dominated by a best corner: the sub-box weakly
// dominated by the corner on every axis. Used by the volume-based ProgCount
// estimator (see DESIGN.md).
func DominatedFraction(v preference.Subspace, lo, hi, corner []float64) float64 {
	f := 1.0
	for _, k := range v {
		ext := hi[k] - lo[k]
		if ext <= 0 {
			// Degenerate extent: the dimension is a point; dominated iff
			// the corner is at or below it.
			if corner[k] <= lo[k] {
				continue
			}
			return 0
		}
		covered := (hi[k] - max(lo[k], corner[k])) / ext
		if covered <= 0 {
			return 0
		}
		if covered > 1 {
			covered = 1
		}
		f *= covered
	}
	return f
}
