package core

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/partition"
	"caqe/internal/preference"
	"caqe/internal/region"
	"caqe/internal/run"
	"caqe/internal/skycube"
	"caqe/internal/trace"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// payloadInfo records one materialized join result. Its output point lives
// in the shared skyline's arena (SharedSkyline.PointVals); the record itself
// is pointer-free, so the collector never scans the store.
type payloadInfo struct {
	rid, tid int
	jc       int // join condition that produced the result; -1 once a row of it is deleted
	reg      int // region (cell pair) that produced the result
	lineage  skycube.QSet
	emitted  skycube.QSet
}

// payloadStore holds the payloadInfo of every join result, indexed by
// payload ID, in fixed-capacity chunks: every chunk but the last is full,
// and adding a result appends within the last chunk's capacity or starts a
// new one, so growth never copies and pointers from at stay valid. Full
// scans range over the chunks; payload c<<payloadShift+i is chunk c's
// element i.
type payloadStore [][]payloadInfo

const (
	payloadShift = 12
	payloadChunk = 1 << payloadShift
)

func (ps payloadStore) at(p int) *payloadInfo {
	return &ps[p>>payloadShift][p&(payloadChunk-1)]
}

// add stores the next result and returns its payload ID.
func (ps *payloadStore) add(info payloadInfo) int {
	if n := len(*ps); n == 0 || len((*ps)[n-1]) == payloadChunk {
		*ps = append(*ps, make([]payloadInfo, 0, payloadChunk))
	}
	c := len(*ps) - 1
	(*ps)[c] = append((*ps)[c], info)
	return c<<payloadShift + len((*ps)[c]) - 1
}

// state is the mutable execution state of one CAQE run: Algorithm 1's
// region collection, dependency graph, priority queue and weights, plus the
// executor's pending-result bookkeeping.
type state struct {
	e      *Engine
	w      *workload.Workload
	clock  *metrics.Clock
	space  *region.Space
	filter *joinFilter
	shared *skycube.SharedSkyline
	rep    *run.Report
	tracer trace.Tracer

	jcQueries []skycube.QSet
	jcSigma   []float64
	uses      region.QueryDims    // per output dimension: the queries whose preference reads it
	kerns     []preference.Kernel // per-query dominance comparator over its preference

	// The dependency graph: region i's out-edges are row i of depRows, a set
	// over region index depWords long (edgeRow); a region the plan gained
	// after the build has no row.
	depRows  []uint64
	depWords int
	indegree []int

	weights  []float64
	payloads payloadStore
	pending  [][]int         // per query: new candidate payloads awaiting their first safety check
	blocked  []map[int][]int // per query: blocking live region index -> parked payloads
	qremap   []int           // local query index -> report query index

	// deferrals counts consecutive lazy-refresh re-queues (bounded to
	// guarantee progress); a field rather than a loop local so a stepping
	// execution (Exec) carries it across Step calls exactly like the batch
	// loop carries it across iterations.
	deferrals int
	// cancelled marks queries retired mid-run by an online session; they are
	// skipped by the feedback update and the final flush. Always zero in
	// batch executions.
	cancelled skycube.QSet
	// cursors records, per (region, join condition), how far the tuple-level
	// join has consumed the region's input cells (flat, region-major; see
	// cursor), so a region reopened for a late-admitted query or after a
	// base-table mutation never re-joins (and re-emits) a tuple pair it
	// already produced.
	cursors []joinCursor
	// rate measures the processing rate (work units per real second) in
	// wall-clock mode; untouched in virtual mode, where counted work *is*
	// the clock.
	rate rateEstimator

	// tupleLoc locates every row of each relation inside the partition — a
	// cache built by indexTuples on the first mutation — and deleted holds
	// the tombstoned row IDs of each side.
	tupleLoc [2]map[int]tupleAddr
	deleted  [2]map[int]bool
	// sealed marks queries permanently closed by Exec.Seal: done, and no
	// longer revivable by mutations. Only sealed (or cancelled) slots are
	// safe for Admit to reclaim — an unsealed done query may be a standing
	// query a later mutation will revive.
	sealed skycube.QSet

	// live owns the regions' Alive sets and the records kept in step with
	// them: the per-query live sets, the CSM queue and the corner index.
	live liveness

	frontier      [][]liveCorner // per query: minimal best corners of live regions, in position order
	frontierDirty []bool
	// order holds, per query, the best corners of its live regions in (sum,
	// region) order as of the last generation bump, with the outcome of each
	// one's last frontier test and the live set of the last refresh. Between
	// bumps a live set only loses members, so a refresh looks only at the
	// corners that died and at what they blocked; after one (gen moved past
	// the order's), the order is collected and sorted afresh. Every site that
	// can add to a live set or move a corner bumps gen (reopen, bindQuery,
	// reviveAfterAppend's bound recomputation).
	order []keptOrder
	gen   uint64
	// refreshFrontier's scratch: the positions of the corners to re-test.
	retestScratch []int32

	// Reused scratch (see DESIGN.md §7): join result buffers (one per segment
	// of a reopened region, see processRegion; the second grows only after a
	// mutation), the payloads the open region created, dominance champions
	// and their bound, the gone-region list of emitSafe and updateWeights'
	// satisfaction values. All are recycled between calls so the steady state of the
	// executor allocates only for durable results.
	js           [2]join.Scratch
	created      []int
	champScratch [][]float64
	boundScratch []float64
	goneScratch  []int
	vsScratch    []float64
	// The coarse tests' probe of the corner index and their two region sets,
	// and the discard's own set: the csm it calls uses the other two.
	probe        region.Probe
	setScratch   [2]region.Bits
	reachScratch region.Bits
	// sortFilter's order: each live region's sum, by region, and the sums'
	// keys with their regions.
	sortSums []float64
	sortKeys []uint64
	sortIDs  []int32
	sorter   partition.KeySorter
	// The CSM's dominator set per query slot, and per slot and region the
	// record of its last ProgCount (progKept).
	domSets []region.Bits
	kept    [][]progKept
	// exactProgCount's integers: first coordinate, extent and table stride
	// per axis, then its threshold table.
	progAxes []int
	// Delete's repair lists: window entries taken out, results to re-settle.
	removedScratch  []skycube.Removed
	resettleScratch []int
}

// liveCorner is one corner on a query's frontier: the best corner of a live
// region projected onto the query's preference, the region (so parked
// results can be re-vetted exactly when their blocking region disappears)
// and the corner's position in the kept order. A preference of ≥ 5
// dimensions does not fit the lanes; its corners compare through the kernel
// on the region's row of the bounds table.
type liveCorner struct {
	lanes  preference.Lanes
	region int32
	pos    int32
}

// keptOrder is one query's frontier records between generation bumps
// (DESIGN.md §13): the corners collected at the last bump in (sum, region)
// order, each region's position among them, and the regions still live at
// the last refresh with their count. A dead corner stays in corners until
// the next bump; kept says which are live.
type keptOrder struct {
	corners []keptCorner
	at      []int32 // region → position in corners; read only for members of kept
	kept    region.Bits
	n       int // members of kept
	gen     uint64
}

// keptCorner is one corner of a kept order, with the outcome of its last
// frontier test. blocker is the position of its first blocker, the first
// frontier corner that weakly dominates it, or minimalCorner. The corners a
// frontier corner blocks first are its dependents, chained through link: a
// frontier corner's link is its first dependent, a blocked corner's the
// next dependent of its blocker, and noCorner ends the chain. A dead corner
// stays in the chain it was in. cnt counts a frontier corner's live
// dependents.
type keptCorner struct {
	sum     float64
	region  int32
	blocker int32
	link    int32
	cnt     int32
}

// The keptCorner.blocker and link values that name no position.
const (
	minimalCorner int32 = -1 // on the frontier
	noCorner      int32 = -1 // the end of a dependents chain
)

// block makes the corner at position p a dependent of the frontier corner
// at position b.
func (ko *keptOrder) block(p, b int32) {
	c, f := &ko.corners[p], &ko.corners[b]
	c.blocker, c.link = b, f.link
	f.link = p
	f.cnt++
}

func newState(e *Engine, clock *metrics.Clock, space *region.Space, shared *skycube.SharedSkyline, rep *run.Report, filter *joinFilter) *state {
	st := &state{
		e:       e,
		w:       e.w,
		clock:   clock,
		tracer:  e.opt.Tracer,
		space:   space,
		filter:  filter,
		shared:  shared,
		rep:     rep,
		live:    newLiveness(space, len(e.w.Queries)),
		cursors: make([]joinCursor, len(space.Regions)*len(e.w.JoinConds)),
		uses:    make(region.QueryDims, len(e.w.OutDims)),
	}
	for i, q := range e.w.Queries {
		st.bindQuery(i, q, i)
	}
	st.jcQueries = make([]skycube.QSet, len(e.w.JoinConds))
	for j := range e.w.JoinConds {
		st.jcQueries[j] = e.w.QueriesWithJC(j)
	}
	st.jcSigma = estimateSelectivities(e.w.JoinConds, filter)
	st.buildDepGraph()
	return st
}

// bindQuery derives the per-query executor state of slot qi from q, reporting
// under reportIdx. A slot one past the last grows every per-query slice; a
// reclaimed one (already emptied by retireSlot) is overwritten.
func (st *state) bindQuery(qi int, q workload.Query, reportIdx int) {
	if qi == len(st.weights) {
		st.weights = append(st.weights, 0)
		st.pending = append(st.pending, nil)
		st.blocked = append(st.blocked, make(map[int][]int))
		st.frontier = append(st.frontier, nil)
		st.frontierDirty = append(st.frontierDirty, false)
		st.order = append(st.order, keptOrder{})
		st.qremap = append(st.qremap, 0)
		st.kerns = append(st.kerns, preference.Kernel{})
		st.live.grow(qi + 1)
	}
	// Initial weights fold the query priority into the benefit model;
	// Eq. 11 feedback then re-balances toward unsatisfied queries.
	st.weights[qi] = 1 + q.Priority
	st.frontierDirty[qi] = true
	st.gen++ // a new preference: the slot's order is collected afresh
	st.qremap[qi] = reportIdx
	st.uses.Bind(qi, q.Pref)
	st.kerns[qi] = preference.NewKernel(q.Pref)
}

// joinCursor records how many leading rows of each input cell's list for
// the condition's key column (partition.Cell.Rows) a region's tuple-level
// join has consumed for one condition. A fresh region sits at (0, 0); a
// region whose lists grew since its last join resumes with only the pairs
// beyond its cursor: new-left × all-right, then old-left × new-right.
type joinCursor struct{ nr, nt int }

func (st *state) cursor(ri, jc int) *joinCursor {
	return &st.cursors[ri*len(st.w.JoinConds)+jc]
}

// joinComplete reports whether region ri's tuple-level join under
// condition jc has consumed every current row pair of its cells' lists.
func (st *state) joinComplete(ri, jc int) bool {
	cur := st.cursor(ri, jc)
	left, right := st.joinRows(ri, jc)
	return cur.nr == len(left) && cur.nt == len(right)
}

// joinRows returns the rows region ri joins under condition jc: its cells'
// lists for the condition's key columns.
func (st *state) joinRows(ri, jc int) (left, right []*tuple.Tuple) {
	c, r := st.w.JoinConds[jc], &st.space.Regions[ri]
	return r.RCell.Rows[c.LeftKey], r.TCell.Rows[c.RightKey]
}

// growRegions extends the per-region executor state over the regions the
// space gained (ExtendJC at admission, Retest after an append): each is
// born done — Alive empty, nothing joined — costing the scheduler nothing
// until reopen revives it.
func (st *state) growRegions() {
	m := len(st.space.Regions)
	st.live.grow(len(st.weights))
	st.indegree = append(st.indegree, make([]int, m-len(st.indegree))...)
	if n := m * len(st.w.JoinConds); n > len(st.cursors) {
		st.cursors = append(st.cursors, make([]joinCursor, n-len(st.cursors))...)
	}
}

// reopen makes region ri serve the queries qs. A live region just extends
// its Alive set; a done (processed, discarded or retired) one, its Alive set
// empty, re-enters the scheduling queue alive for qs only — whatever
// queries it served before already took (and emitted) everything they
// needed from it. The join cursors guarantee the reprocessing never repeats
// a tuple pair. Reports whether a done region was revived.
func (st *state) reopen(ri int, qs skycube.QSet) bool {
	st.space.Regions[ri].RQL |= qs
	st.markFrontiersDirty(qs)
	st.gen++ // live sets grow: the kept orders are stale
	if !st.live.revive(ri, qs) {
		return false
	}
	st.live.push(ri, st.csm(ri))
	return true
}

// run executes Algorithm 1: iteratively pick the root region with the
// highest CSM, process it at tuple level, discard regions dominated by the
// generated tuples, release dependency edges, emit newly-safe results and
// update the feedback weights.
func (st *state) run() {
	if st.e.opt.DataOrderScheduling {
		st.runDataOrder()
		return
	}
	st.initQueue()
	st.deferrals = 0
	for st.step() {
	}
	st.flushRemaining()
}

// step runs one Algorithm 1 iteration: pop the best root, lazily refresh
// its score, and process it at tuple level. It returns false once the
// queue is drained. Extracted from the batch loop so an online session can
// interleave scheduling decisions with query admission and cancellation;
// a plain `for st.step() {}` reproduces the batch loop exactly.
func (st *state) step() bool {
	for {
		it, ok := st.live.pop()
		if !ok {
			return false
		}
		ri := it.region
		if st.space.Regions[ri].Alive == 0 {
			continue // stale entry of a region retired in-queue
		}
		// Lazy refresh: CSM drifts as time advances and regions die. If the
		// recomputed score falls below the next-best root, reinsert and take
		// the next entry instead. Recomputing advances the clock (it is
		// counted coarse work), so deferrals are bounded to guarantee
		// progress.
		score := it.score
		if st.deferrals < 3 && st.live.pq.Len() > 0 {
			score = st.csm(ri)
			if scoreBucket(score) < st.live.pq.items[0].bucket {
				st.live.push(ri, score)
				st.deferrals++
				st.traceDefer(ri, score)
				continue
			}
		}
		st.deferrals = 0
		st.traceDecision(ri, score)

		st.process(ri)
		return true
	}
}

// runDataOrder pipelines the regions through the shared plan blindly in
// construction order: the S-JFSL behaviour — all of the plan sharing, none
// of the contract-driven scheduling.
func (st *state) runDataOrder() {
	for ri := range st.space.Regions {
		if st.space.Regions[ri].Alive != 0 {
			st.traceDataOrderDecision(ri)
			st.process(ri)
		}
	}
	st.flushRemaining()
}

// process runs one scheduled region's tuple-level step and applies the
// Eq. 11 feedback where the CSM reads it. In wall-clock mode the region
// doubles as one sample of the processing rate the CSM horizon extrapolates
// from.
func (st *state) process(ri int) {
	var workBefore, wallBefore float64
	wall := st.clock.Wall()
	if wall {
		workBefore, wallBefore = st.clock.WorkUnits(), st.clock.Now()
	}
	st.processRegion(ri)
	if st.e.opt.feedback() {
		st.updateWeights()
	}
	if wall {
		st.rate.observe(st.clock.WorkUnits()-workBefore,
			(st.clock.Now()-wallBefore)/metrics.VirtualSecond)
	}
}

// initQueue seeds the priority queue with the dependency-graph roots.
// Regions born done (the retired tail a KeepPruned build carries for late
// admissions, Alive empty) never enter the queue.
func (st *state) initQueue() {
	for i, r := range st.space.Regions {
		if st.indegree[i] == 0 && r.Alive != 0 {
			st.live.push(i, st.csm(i))
		}
	}
}

// discardDominated implements the "Discard regions dominated by generated
// tuple(s)" step of Algorithm 1: a generated result that dominates the best
// corner of a live region in a query's preference proves that the region
// cannot contribute any result for that query. qs are the queries the
// processed region served. For each, one probe of the corner index finds the
// live regions the champions' bound does not rule out, and only those, in
// ascending order, take champion tests. A region the bound rules out is
// charged the len(champs) tests that would have found no dominator, in one
// call before the next region tested, so the clock every test, kill, trace
// and release reads is a walk over the whole live set's (DESIGN.md §13).
// Returns the set of queries for which at least one region died (their
// emission frontiers shrink).
func (st *state) discardDominated(qs skycube.QSet, newPayloads []int) skycube.QSet {
	var killedQueries skycube.QSet
	for qi := qs.Next(0); qi >= 0; qi = qs.Next(qi + 1) {
		champs, bound := st.champions(qi, newPayloads)
		if len(champs) == 0 {
			continue
		}
		live := st.live.sets[qi]
		reach := slices.Grow(st.reachScratch[:0], len(live))[:len(live)]
		st.reachScratch = reach
		st.live.corners().NotBelow(reach, live, st.kerns[qi].Sub(), bound)
		tests := int64(len(champs))
		from := 0
		for fi := reach.Next(0); fi >= 0; fi = reach.Next(fi + 1) {
			ruledOut := int64(live.CountRange(from, fi))
			from = fi + 1
			i := st.firstDominator(qi, champs, st.space.LoRow(fi))
			st.clock.CountCellOp(ruledOut*tests + int64(min(i+1, len(champs))))
			if i == len(champs) {
				continue
			}
			killedQueries = killedQueries.Add(qi)
			st.traceDiscard(fi, qi)
			if st.live.kill(fi, skycube.QSet(0).Add(qi)) {
				st.clock.CountRegionPruned()
				st.releaseEdges(fi)
			}
		}
		st.clock.CountCellOp(int64(live.CountRange(from, len(st.space.Regions))) * tests)
	}
	st.markFrontiersDirty(killedQueries)
	return killedQueries
}

// champions returns the output points of the results among payloads that
// are current skyline candidates of query qi — only those can
// wholesale-dominate a region (dominance is transitive, so the dominators
// of dominators suffice) — and their bound: the minimum on each dimension
// of qi's preference, in preference order. A champion that dominates a
// corner lies at or below it on every dimension, so a corner strictly below
// the bound on one dimension is out of every champion's reach. The builtin
// min carries a NaN through, and a NaN bound rules nothing out. Both slices
// are scratch, valid until the next call.
func (st *state) champions(qi int, payloads []int) (champs [][]float64, bound []float64) {
	champs, bound = st.champScratch[:0], st.boundScratch[:0]
	pref := st.kerns[qi].Sub()
	for range pref {
		bound = append(bound, math.Inf(1))
	}
	for _, p := range payloads {
		if st.payloads.at(p).lineage.Has(qi) && st.shared.IsCandidate(p, qi) {
			x := st.shared.PointVals(p)
			champs = append(champs, x)
			for k, d := range pref {
				bound[k] = min(bound[k], x[d])
			}
		}
	}
	st.champScratch, st.boundScratch = champs[:0], bound[:0]
	return champs, bound
}

// firstDominator returns the index of the first of champs that dominates
// corner lo in query qi's preference, or len(champs) if none does. The
// caller charges the min(i+1, len(champs)) tests.
func (st *state) firstDominator(qi int, champs [][]float64, lo []float64) int {
	kern := &st.kerns[qi]
	for i, x := range champs {
		if kern.Dominates(x, lo) {
			return i
		}
	}
	return len(champs)
}

// emitSafe re-evaluates the results of the affected queries and emits every
// result that is now guaranteed final: it is still a skyline candidate and
// no live region could produce a dominating tuple (§6 "Progressive Result
// Reporting"). The live-region set only ever shrinks, so an unsafe result
// stays unsafe until its specific blocking region dies: each parked result
// is indexed under its blocking witness and re-vetted exactly when that
// region is processed or discarded for the query.
func (st *state) emitSafe(affected skycube.QSet) {
	for qi := affected.Next(0); qi >= 0; qi = affected.Next(qi + 1) {
		st.refreshFrontier(qi)
		// Re-vet results whose blocking region is gone (deterministic
		// ascending region order).
		gone := st.goneScratch[:0]
		for f := range st.blocked[qi] {
			if !st.live.sets[qi].Has(f) {
				gone = append(gone, f)
			}
		}
		sort.Ints(gone)
		for _, f := range gone {
			list := st.blocked[qi][f]
			delete(st.blocked[qi], f)
			for _, p := range list {
				st.vet(qi, p)
			}
		}
		st.goneScratch = gone[:0]
		// First safety check for freshly generated candidates.
		for _, p := range st.pending[qi] {
			st.vet(qi, p)
		}
		st.pending[qi] = st.pending[qi][:0]
	}
}

// vet emits a candidate if no live region can dominate it; otherwise parks
// it under the first frontier corner that blocks it.
func (st *state) vet(qi, p int) {
	if st.payloads.at(p).emitted.Has(qi) {
		return
	}
	if !st.shared.IsCandidate(p, qi) {
		return // dominated since insertion: drop
	}
	out := st.shared.PointVals(p)
	var lanes preference.Lanes
	st.kerns[qi].Project(out, &lanes)
	fr := st.frontier[qi]
	i := st.firstBlocker(qi, fr, &lanes, out)
	st.clock.CountCellOp(int64(min(i+1, len(fr))))
	if i < len(fr) {
		f := int(fr[i].region)
		st.blocked[qi][f] = append(st.blocked[qi][f], p)
		return
	}
	st.emit(qi, p)
}

// firstBlocker returns the index of the first of query qi's corners cs that
// weakly dominates point x in the query's preference — lanes being x's
// projection, which the test reads when the preference fits the lanes — or
// len(cs) if none does. The caller charges the min(i+1, len(cs)) tests.
func (st *state) firstBlocker(qi int, cs []liveCorner, lanes *preference.Lanes, x []float64) int {
	kern := &st.kerns[qi]
	i := 0
	if kern.FitsLanes() {
		for i < len(cs) && !preference.WeakLanes(&cs[i].lanes, lanes) {
			i++
		}
	} else {
		for i < len(cs) && !kern.WeakDominates(st.space.LoRow(int(cs[i].region)), x) {
			i++
		}
	}
	return i
}

// emit delivers one result to one query at the current virtual time. The
// emission owns its output point: a view into the arena would keep the
// point's whole slab reachable from the report for as long as a caller holds
// it, and emissions are few where join results are many.
func (st *state) emit(qi, payload int) {
	info := st.payloads.at(payload)
	info.emitted = info.emitted.Add(qi)
	st.clock.CountEmit(1)
	st.rep.Emit(run.Emission{
		Query: st.qremap[qi],
		RID:   info.rid,
		TID:   info.tid,
		Out:   append([]float64(nil), st.shared.PointVals(payload)...),
		Time:  st.clock.Now() / metrics.VirtualSecond,
	})
}

// refreshFrontier recomputes the minimal best corners of the live regions
// of a query (the only corners that matter for the safety test). Corners
// are taken in coordinate-sum order — a monotone function of weak
// dominance — so each corner need only be checked against the
// already-accepted minima (the SFS trick).
//
// The sorted corners are kept across refreshes (state.order) with each
// one's last outcome, and only a generation bump sorts and filters them
// afresh (sortFilter). Otherwise regions can only have been processed or
// discarded for the query since the last refresh, and the refresh looks at
// the corners that died: kept &^ live. A dead blocked corner leaves its
// blocker's count. A dead frontier corner leaves the frontier, and its live
// dependents are re-tested, in position order, against the frontier corners
// before them; one nothing blocks joins the frontier at its position. Every
// other corner keeps its outcome with no test: a corner is minimal exactly
// when no earlier live corner weakly dominates it, so losing corners leaves
// a minimal one minimal, and a live blocker is still the first (DESIGN.md
// §13). The charge is what a fresh sort-filter's scan makes — the frontier
// so far for a minimal corner, its blocker's rank plus one for a blocked
// one — which, with m frontier corners of which the j-th blocks cnt_j
// first, is m(m−1)/2 + #blocked + Σ j·cnt_j.
func (st *state) refreshFrontier(qi int) {
	if !st.frontierDirty[qi] {
		return
	}
	st.frontierDirty[qi] = false
	ko := &st.order[qi]
	if ko.gen != st.gen {
		st.sortFilter(qi)
		return
	}
	live := st.live.sets[qi]
	retest := st.retestScratch[:0]
	frontierDied := false
	for w, word := range ko.kept {
		dead := word &^ live[w]
		if dead == 0 {
			continue
		}
		ko.kept[w] = word &^ dead
		ko.n -= bits.OnesCount64(dead)
		for ; dead != 0; dead &= dead - 1 {
			c := &ko.corners[ko.at[w<<6|bits.TrailingZeros64(dead)]]
			if c.blocker != minimalCorner {
				ko.corners[c.blocker].cnt--
				continue
			}
			frontierDied = true
			for p := c.link; p != noCorner; p = ko.corners[p].link {
				if live.Has(int(ko.corners[p].region)) {
					retest = append(retest, p)
				}
			}
		}
	}
	fr := st.frontier[qi]
	if frontierDied {
		kept := fr[:0]
		for _, f := range fr {
			if live.Has(int(f.region)) {
				kept = append(kept, f)
			}
		}
		fr = kept
	}
	slices.Sort(retest)
	for _, p := range retest {
		f, lo := st.frontierCorner(qi, ko, p)
		k := sort.Search(len(fr), func(j int) bool { return fr[j].pos > p })
		if i := st.firstBlocker(qi, fr[:k], &f.lanes, lo); i < k {
			ko.block(p, fr[i].pos)
		} else {
			fr = slices.Insert(fr, k, f)
		}
	}
	st.retestScratch = retest[:0]
	m := int64(len(fr))
	charged := m*(m-1)/2 + int64(ko.n) - m
	for j, f := range fr {
		charged += int64(j) * int64(ko.corners[f.pos].cnt)
	}
	st.clock.CountCellOp(charged)
	st.frontier[qi] = fr
	if ko.n == 0 {
		st.releaseRecords(qi)
	}
}

// releaseRecords drops query qi's frontier records and its ProgCount
// records. A query with no live region holds none, so an execution that
// binds many slots over its life keeps records for its running queries
// only; the next refresh after a region revives the query sorts afresh, and
// the revival's generation bump had staled the ProgCounts anyway.
func (st *state) releaseRecords(qi int) {
	st.order[qi], st.frontier[qi] = keptOrder{}, nil
	if qi < len(st.kept) {
		st.kept[qi] = nil
	}
}

// sortFilter rebuilds query qi's kept order and frontier from its live set:
// the best corner of every live region, by sum over the preference (−0 tied
// with +0), then by the (unique) region index — a total order, and, regions
// being collected in ascending index order, a stable sort on the sum's key
// — each tested against the frontier so far and charged one cell operation
// per test.
func (st *state) sortFilter(qi int) {
	kern := &st.kerns[qi]
	ko := &st.order[qi]
	live := st.live.sets[qi]
	sums := slices.Grow(st.sortSums[:0], len(st.space.Regions))[:len(st.space.Regions)]
	keys, ids := st.sortKeys[:0], st.sortIDs[:0]
	for fi := live.Next(0); fi >= 0; fi = live.Next(fi + 1) {
		sums[fi] = kern.Sum(st.space.LoRow(fi))
		keys, ids = append(keys, partition.FloatKey(sums[fi]+0)), append(ids, int32(fi))
	}
	st.sortSums, st.sortKeys, st.sortIDs = sums, keys, ids
	if len(ids) == 0 {
		st.releaseRecords(qi)
		return
	}
	st.sorter.Sort(keys, ids)
	cs := ko.corners[:0]
	for _, fi := range ids {
		cs = append(cs, keptCorner{sum: sums[fi], region: fi})
	}
	ko.corners, ko.n, ko.gen = cs, len(cs), st.gen
	ko.at = slices.Grow(ko.at[:0], len(st.space.Regions))[:len(st.space.Regions)]
	ko.kept = append(ko.kept[:0], live...)
	fr := st.frontier[qi][:0]
	var charged int64
	for p := range cs {
		ko.at[cs[p].region] = int32(p)
		f, lo := st.frontierCorner(qi, ko, int32(p))
		if i := st.firstBlocker(qi, fr, &f.lanes, lo); i < len(fr) {
			charged += int64(i) + 1
			ko.block(int32(p), fr[i].pos)
		} else {
			charged += int64(len(fr))
			fr = append(fr, f)
		}
	}
	st.clock.CountCellOp(charged)
	st.frontier[qi] = fr
}

// frontierCorner makes the kept corner at position p a frontier corner with
// no dependents, as it would be if no earlier frontier corner blocks it, and
// returns its frontier entry and its region's best corner.
func (st *state) frontierCorner(qi int, ko *keptOrder, p int32) (liveCorner, []float64) {
	c := &ko.corners[p]
	c.blocker, c.link, c.cnt = minimalCorner, noCorner, 0
	lo := st.space.LoRow(int(c.region))
	f := liveCorner{region: c.region, pos: p}
	st.kerns[qi].Project(lo, &f.lanes)
	return f, lo
}

// cornerMoved follows a region's best corner recomputed in place: every kept
// order is stale (its sums and lanes are the old corner's), and a frontier
// holding the corner takes the new lanes. reopen marks dirty only the
// queries of the region's passing conditions; a query the region is still
// alive for after Withdraw took its condition keeps its frontier, whose
// safety test then reads the corner where it lies now, as it would through
// the table.
func (st *state) cornerMoved(ri int) {
	st.gen++
	st.live.moveCorner(ri)
	alive := st.space.Regions[ri].Alive
	for qi := alive.Next(0); qi >= 0; qi = alive.Next(qi + 1) {
		fr := st.frontier[qi]
		for i := range fr {
			if int(fr[i].region) == ri {
				st.kerns[qi].Project(st.space.LoRow(ri), &fr[i].lanes)
			}
		}
	}
}

// scratchSets returns the two reused region sets of the coarse tests,
// sized to the region count.
func (st *state) scratchSets() (a, b region.Bits) {
	n := (len(st.space.Regions) + 63) / 64
	for i := range st.setScratch {
		st.setScratch[i] = slices.Grow(st.setScratch[i][:0], n)[:n]
	}
	return st.setScratch[0], st.setScratch[1]
}

func (st *state) markFrontiersDirty(qs skycube.QSet) {
	for qi := qs.Next(0); qi >= 0; qi = qs.Next(qi + 1) {
		st.frontierDirty[qi] = true
	}
}

// updateWeights applies the satisfaction feedback of Eq. 11: queries whose
// run-time satisfaction trails the current maximum get their weight bumped
// so the optimizer prioritizes regions serving them.
func (st *state) updateWeights() {
	n := len(st.w.Queries)
	vmax := 0.0
	vs := st.vsScratch[:0]
	for i := 0; i < n; i++ {
		v := 0.0
		if !st.cancelled.Has(i) {
			v = st.rep.Trackers[st.qremap[i]].Runtime()
		}
		if v > vmax {
			vmax = v
		}
		vs = append(vs, v)
	}
	st.vsScratch = vs
	den := 0.0
	for i, v := range vs {
		if st.cancelled.Has(i) {
			continue
		}
		den += vmax - v
	}
	if den <= 0 {
		return
	}
	for i := range st.weights {
		if st.cancelled.Has(i) {
			continue
		}
		st.weights[i] += (vmax - vs[i]) / den
	}
	st.traceFeedback(vs, vmax, den)
}

// flushRemaining emits every still-parked candidate at the end of
// processing: with no live regions left, every surviving candidate is
// final. Payloads are emitted in deterministic ascending order.
func (st *state) flushRemaining() {
	for qi := range st.pending {
		if st.cancelled.Has(qi) {
			continue
		}
		rest := append([]int(nil), st.pending[qi]...)
		for _, list := range st.blocked[qi] {
			rest = append(rest, list...) // in map order: rest is sorted below
		}
		// Reset rather than nil out: an online session can admit another
		// query (or revive regions) after a drain, and the executor's
		// bookkeeping must stay usable.
		st.blocked[qi] = make(map[int][]int)
		st.pending[qi] = st.pending[qi][:0]
		sort.Ints(rest)
		for _, p := range rest {
			if st.payloads.at(p).emitted.Has(qi) {
				continue
			}
			if !st.shared.IsCandidate(p, qi) {
				continue
			}
			st.emit(qi, p)
		}
	}
}

// The structured trace helpers below feed the Options.Tracer sink. They
// perform no counted work: scores are the ones the scheduler acted on
// (never recomputed), the runner-up and frontier come from a plain scan of
// the queue's backing slice, and everything beyond the nil check is skipped
// when tracing is off — so a traced run's schedule, timestamps and counters
// are byte-identical to an untraced one.

// newEvent starts a structured event stamped with the report's strategy
// label and the current virtual time, flushing any pending emission batch
// first so the stream stays causally ordered.
func (st *state) newEvent(kind trace.Kind) trace.Event {
	st.rep.FlushTrace()
	ev := trace.New(kind)
	ev.Strategy = st.rep.Strategy
	ev.T = st.clock.Now() / metrics.VirtualSecond
	return ev
}

// traceDecision records one Algorithm 1 pick: the chosen root region, the
// (possibly stale) CSM the scheduler compared, the best remaining
// candidate and the scheduling frontier size.
func (st *state) traceDecision(ri int, score float64) {
	if st.tracer == nil {
		return
	}
	ev := st.newEvent(trace.KindDecision)
	ev.Region = ri
	ev.CSM = score
	ruBucket := 0
	for _, it := range st.live.pq.items {
		if !st.live.queued[it.region] {
			continue
		}
		ev.Frontier++
		if ev.RunnerUp < 0 || it.bucket > ruBucket ||
			(it.bucket == ruBucket && it.region < ev.RunnerUp) {
			ev.RunnerUp, ev.RunnerUpCSM, ruBucket = it.region, it.score, it.bucket
		}
	}
	ev.Queries = st.reportQueries(st.space.Regions[ri].Alive)
	st.tracer.Trace(ev)
}

// traceDataOrderDecision records one blind pipeline-order pick (the
// DataOrderScheduling / S-JFSL mode): no CSM, no runner-up; the frontier
// is the count of regions not yet done.
func (st *state) traceDataOrderDecision(ri int) {
	if st.tracer == nil {
		return
	}
	ev := st.newEvent(trace.KindDecision)
	ev.Region = ri
	for _, r := range st.space.Regions {
		if r.Alive != 0 {
			ev.Frontier++
		}
	}
	ev.Queries = st.reportQueries(st.space.Regions[ri].Alive)
	st.tracer.Trace(ev)
}

// traceDefer records a region re-queued after its lazy score refresh fell
// below the next-best bucket.
func (st *state) traceDefer(ri int, score float64) {
	if st.tracer == nil {
		return
	}
	ev := st.newEvent(trace.KindDefer)
	ev.Region = ri
	ev.CSM = score
	st.tracer.Trace(ev)
}

// traceOpBatch records the rows leaving one stage of processRegion. The
// arguments are values the caller already has on hand, so a disabled tracer
// costs only the nil check and no counted work ever runs.
func (st *state) traceOpBatch(opName string, region, rows int) {
	if st.tracer == nil {
		return
	}
	ev := st.newEvent(trace.KindOpBatch)
	ev.Op = opName
	ev.Region = region
	ev.Count = rows
	st.tracer.Trace(ev)
}

// traceDiscard records a region killed for one query by a generated result.
func (st *state) traceDiscard(fi, qi int) {
	if st.tracer == nil {
		return
	}
	ev := st.newEvent(trace.KindDiscard)
	ev.Region = fi
	ev.Query = st.qremap[qi]
	st.tracer.Trace(ev)
}

// traceFeedback records one Eq. 11 weight update: the affected queries
// (in report indices), the weights after the update, and the per-query
// increments (vmax - v_i) / Σ(vmax - v_j).
func (st *state) traceFeedback(vs []float64, vmax, den float64) {
	if st.tracer == nil {
		return
	}
	ev := st.newEvent(trace.KindFeedback)
	ev.Queries = make([]int, len(st.weights))
	ev.Weights = make([]float64, len(st.weights))
	ev.Deltas = make([]float64, len(st.weights))
	for i, w := range st.weights {
		ev.Queries[i] = st.qremap[i]
		ev.Weights[i] = w
		ev.Deltas[i] = (vmax - vs[i]) / den
	}
	st.tracer.Trace(ev)
}

// reportQueries expands an alive-set into report query indices.
func (st *state) reportQueries(qs skycube.QSet) []int {
	var out []int
	for qi := qs.Next(0); qi >= 0; qi = qs.Next(qi + 1) {
		out = append(out, st.qremap[qi])
	}
	return out
}
