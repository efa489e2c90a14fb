package core

import (
	"math"
	"slices"
	"sort"

	"caqe/internal/join"
	"caqe/internal/metrics"
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

	regions   []*region.Region // one with an empty Alive set is done: joined, discarded or retired
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
	pq       *csmHeap
	inQueue  []bool

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

	// live holds, per query, the regions live for it: the transpose of the
	// regions' Alive sets, which syncLive follows after every write. ranks
	// indexes every region's best corner for the coarse tests that probe it
	// (cornerRanks): a moved corner is re-ranked in place, and a region
	// added drops the index until the next use rebuilds it.
	live  []region.Bits
	ranks *region.CornerRanks

	frontier      [][]liveCorner // per query: minimal best corners of live regions
	frontierDirty []bool
	// order holds, per query, the best corners of its live regions in
	// (sum, region) order as of its last frontier refresh, each with the
	// outcome of its last frontier test. Between refreshes a live set only
	// loses members, so a refresh filters the list instead of re-collecting
	// and re-sorting it — unless gen moved past orderGen: every site that can
	// add to a live set or move a corner bumps gen (reopen, bindQuery,
	// reviveAfterAppend's bound recomputation).
	order    [][]liveCorner
	orderGen []uint64
	gen      uint64
	// refreshFrontier's scratch: the rank of each region on the frontier
	// being built. Sized to the region count, it grows only with it.
	rankScratch []int32

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
	domScratch   [][]*region.Region
	// The coarse tests' probe of the corner index and their two region sets.
	probe      region.Probe
	setScratch [2]region.Bits
	// exactProgCount's integers: first coordinate, extent and table stride
	// per axis, then its threshold table.
	progAxes []int
	// Delete's repair lists: window entries taken out, results to re-settle.
	removedScratch  []skycube.Removed
	resettleScratch []int
}

// liveCorner is the best corner of one live region of a query: its sum over
// the query's preference (the order's sort key), the region (so parked
// results can be re-vetted exactly when their blocking region disappears)
// and the corner projected onto the preference. A preference of ≥ 5
// dimensions does not fit the lanes; its corners compare through the kernel
// on the region's Lo. In a kept order, blocker is the region of the first
// frontier corner that weakly dominated the corner at the last refresh, or
// minimalCorner or untestedCorner.
type liveCorner struct {
	sum     float64
	region  int32
	blocker int32
	lanes   preference.Lanes
}

// The two liveCorner.blocker states that name no region.
const (
	untestedCorner int32 = -1 // collected since the last refresh
	minimalCorner  int32 = -2 // on the frontier
)

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
		regions: space.Regions,
		cursors: make([]joinCursor, len(space.Regions)*len(e.w.JoinConds)),
		uses:    make(region.QueryDims, len(e.w.OutDims)),
	}
	for i, q := range e.w.Queries {
		st.bindQuery(i, q, i)
	}
	for ri := range st.regions {
		st.syncLive(ri)
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
		st.order = append(st.order, nil)
		st.orderGen = append(st.orderGen, 0)
		st.qremap = append(st.qremap, 0)
		st.kerns = append(st.kerns, preference.Kernel{})
		st.live = append(st.live, region.NewBits(len(st.regions)))
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

// joinComplete reports whether the region's tuple-level join under
// condition jc has consumed every current row pair of its cells' lists.
func (st *state) joinComplete(r *region.Region, jc int) bool {
	cur := st.cursor(r.ID, jc)
	left, right := st.joinRows(r, jc)
	return cur.nr == len(left) && cur.nt == len(right)
}

// joinRows returns the rows a region joins under condition jc: its cells'
// lists for the condition's key columns.
func (st *state) joinRows(r *region.Region, jc int) (left, right []*tuple.Tuple) {
	c := st.w.JoinConds[jc]
	return r.RCell.Rows[c.LeftKey], r.TCell.Rows[c.RightKey]
}

// growRegions extends the per-region executor state over the regions the
// space gained (ExtendJC at admission, Retest after an append): each is
// born done — Alive empty, nothing joined — costing the scheduler nothing
// until reopen revives it.
func (st *state) growRegions() {
	if len(st.regions) == len(st.space.Regions) {
		return
	}
	st.regions = st.space.Regions
	st.ranks = nil
	for qi, set := range st.live {
		st.live[qi] = append(set, make(region.Bits, (len(st.regions)+63)/64-len(set))...)
	}
	for len(st.inQueue) < len(st.regions) {
		st.inQueue = append(st.inQueue, false)
		st.indegree = append(st.indegree, 0)
	}
	if n := len(st.regions) * len(st.w.JoinConds); n > len(st.cursors) {
		st.cursors = append(st.cursors, make([]joinCursor, n-len(st.cursors))...)
	}
}

// reopen makes a region serve the queries qs. A live region just extends
// its Alive set; a done (processed, discarded or retired) one, its Alive set
// empty, re-enters the scheduling queue alive for qs only — whatever
// queries it served before already took (and emitted) everything they
// needed from it. The join cursors guarantee the reprocessing never repeats
// a tuple pair. Reports whether a done region was revived.
func (st *state) reopen(r *region.Region, qs skycube.QSet) bool {
	r.RQL |= qs
	st.markFrontiersDirty(qs)
	st.gen++ // live sets grow: the kept orders are stale
	revived := r.Alive == 0
	r.Alive |= qs
	st.syncLive(r.ID)
	if !revived {
		return false
	}
	if !st.inQueue[r.ID] {
		st.pq.push(r.ID, st.csm(r))
		st.inQueue[r.ID] = true
	}
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
	for st.pq.Len() > 0 {
		it, popped := st.pq.popBest()
		if !popped {
			return false
		}
		ri := it.region
		if st.regions[ri].Alive == 0 {
			st.inQueue[ri] = false // stale entry of a region retired in-queue
			continue
		}
		st.inQueue[ri] = false
		// Lazy refresh: CSM drifts as time advances and regions die. If the
		// recomputed score falls below the next-best root, reinsert and take
		// the next entry instead. Recomputing advances the clock (it is
		// counted coarse work), so deferrals are bounded to guarantee
		// progress.
		score := it.score
		if st.deferrals < 3 && st.pq.Len() > 0 {
			score = st.csm(st.regions[ri])
			if next, ok := st.pq.peekBucket(); ok && scoreBucket(score) < next {
				st.pq.push(ri, score)
				st.inQueue[ri] = true
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
	return false
}

// runDataOrder pipelines the regions through the shared plan blindly in
// construction order: the S-JFSL behaviour — all of the plan sharing, none
// of the contract-driven scheduling.
func (st *state) runDataOrder() {
	for ri, r := range st.regions {
		if r.Alive == 0 {
			continue
		}
		st.traceDataOrderDecision(ri)
		st.process(ri)
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
	st.pq = newCSMHeap()
	st.inQueue = make([]bool, len(st.regions))
	for i := range st.regions {
		if st.indegree[i] == 0 && st.regions[i].Alive != 0 {
			st.pq.push(i, st.csm(st.regions[i]))
			st.inQueue[i] = true
		}
	}
}

// discardDominated implements the "Discard regions dominated by generated
// tuple(s)" step of Algorithm 1: a generated result that dominates the best
// corner of a live region in a query's preference proves that the region
// cannot contribute any result for that query. qs are the queries the
// processed region served; each walks its live set in ascending order.
// Returns the set of queries for which at least one region died (their
// emission frontiers shrink).
func (st *state) discardDominated(qs skycube.QSet, newPayloads []int) skycube.QSet {
	var killedQueries skycube.QSet
	for qi := qs.Next(0); qi >= 0; qi = qs.Next(qi + 1) {
		champs, bound := st.champions(qi, newPayloads)
		if len(champs) == 0 {
			continue
		}
		live := st.live[qi]
		for fi := live.Next(0); fi >= 0; fi = live.Next(fi + 1) {
			rf := st.regions[fi]
			if !st.cornerDominated(qi, champs, bound, rf) {
				continue
			}
			rf.Alive &^= 1 << uint(qi)
			live.Unset(fi)
			killedQueries = killedQueries.Add(qi)
			st.traceDiscard(fi, qi)
			if rf.Alive == 0 {
				// The region dies with its queue entry still enqueued;
				// mark it out so a later reopen (online admission) knows
				// to re-push it.
				st.inQueue[fi] = false
				st.clock.CountRegionPruned()
				st.releaseEdges(fi)
			}
		}
	}
	st.markFrontiersDirty(killedQueries)
	return killedQueries
}

// champions returns the output points of the results among payloads that
// are current skyline candidates of query qi — only those can
// wholesale-dominate a region (dominance is transitive, so the dominators
// of dominators suffice) — and their bound: the minimum on each dimension
// of qi's preference, in preference order, which cornerDominated tests
// first. The builtin min carries a NaN through, and a NaN bound rules
// nothing out. Both slices are scratch, valid until the next call.
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

// cornerDominated reports whether one of champs dominates the region's best
// corner in query qi's preference — proof that the region cannot contribute
// a result to qi. Each test is charged as one cell-level operation. A
// champion that dominates the corner lies at or below it on every dimension,
// so a corner strictly below bound (champions) on one dimension is out of
// every champion's reach: no champion is tested, and the region is charged
// at once the len(champs) tests that would have found no dominator
// (DESIGN.md §13).
func (st *state) cornerDominated(qi int, champs [][]float64, bound []float64, r *region.Region) bool {
	kern := &st.kerns[qi]
	for k, d := range kern.Sub() {
		if r.Lo[d] < bound[k] {
			st.clock.CountCellOp(int64(len(champs)))
			return false
		}
	}
	for i, x := range champs {
		if kern.Dominates(x, r.Lo) {
			st.clock.CountCellOp(int64(i + 1))
			return true
		}
	}
	st.clock.CountCellOp(int64(len(champs)))
	return false
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
			if !st.live[qi].Has(f) {
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
		for i < len(cs) && !kern.WeakDominates(st.regions[cs[i].region].Lo, x) {
			i++
		}
	}
	return i
}

// liveIn reports whether region ri is still live for query qi.
func (st *state) liveIn(qi int, ri int32) bool {
	return st.live[qi].Has(int(ri))
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
// already-accepted minima (the SFS trick), keeping the refresh near-linear.
//
// The sorted live set is kept across refreshes (state.order): since the
// last one, regions can only have been processed or discarded for the
// query, and a stable filter of a sorted list is the sorted remainder, so
// only after a gen bump is the order collected and sorted afresh. Each kept
// corner also keeps the outcome of its last test, and only a corner whose
// blocker died (or that was just collected) scans the frontier again. A
// corner is minimal exactly when no earlier live corner weakly dominates
// it, so losing corners leaves a minimal one minimal. A live blocker is
// still the first: a frontier corner before it that blocks the corner now
// was either on the frontier then, or blocked then by an earlier frontier
// corner that, dominance being transitive, blocks the corner too. The
// charge is what a fresh collect-and-sort's scan makes: the frontier so far
// for a minimal corner, the blocker's rank plus one otherwise.
func (st *state) refreshFrontier(qi int) {
	if !st.frontierDirty[qi] {
		return
	}
	st.frontierDirty[qi] = false
	if st.orderGen[qi] != st.gen {
		st.collectOrder(qi)
	}
	if len(st.rankScratch) < len(st.regions) {
		st.rankScratch = make([]int32, len(st.regions))
	}
	rank := st.rankScratch
	order := st.order[qi]
	live := order[:0]
	minimal := st.frontier[qi][:0]
	var charged int64
	for _, c := range order {
		if !st.liveIn(qi, c.region) {
			continue
		}
		if b := c.blocker; b == untestedCorner || b >= 0 && !st.liveIn(qi, b) {
			if i := st.firstBlocker(qi, minimal, &c.lanes, st.regions[c.region].Lo); i < len(minimal) {
				c.blocker = minimal[i].region
			} else {
				c.blocker = minimalCorner
			}
		}
		live = append(live, c)
		if c.blocker == minimalCorner {
			charged += int64(len(minimal))
			rank[c.region] = int32(len(minimal))
			minimal = append(minimal, c)
		} else {
			charged += int64(rank[c.blocker]) + 1
		}
	}
	st.clock.CountCellOp(charged)
	st.order[qi], st.frontier[qi] = live, minimal
}

// collectOrder rebuilds query qi's kept order: the best corner of every live
// region, by sum over the preference, then by the (unique) region index — a
// total order, and, regions being collected in ascending index order, a
// stable sort on the sum.
func (st *state) collectOrder(qi int) {
	kern := &st.kerns[qi]
	order := st.order[qi][:0]
	live := st.live[qi]
	for fi := live.Next(0); fi >= 0; fi = live.Next(fi + 1) {
		rf := st.regions[fi]
		order = append(order, liveCorner{sum: kern.Sum(rf.Lo), region: int32(fi), blocker: untestedCorner})
		kern.Project(rf.Lo, &order[len(order)-1].lanes)
	}
	slices.SortFunc(order, func(a, b liveCorner) int {
		if a.sum != b.sum {
			if a.sum < b.sum {
				return -1
			}
			return 1
		}
		return int(a.region - b.region)
	})
	st.order[qi], st.orderGen[qi] = order, st.gen
}

// cornerMoved follows a region's best corner recomputed in place: every kept
// order is stale (its sums and lanes are the old corner's), and a frontier
// holding the corner takes the new lanes. reopen marks dirty only the
// queries of the region's passing conditions; a query the region is still
// alive for after Withdraw took its condition keeps its frontier, whose
// safety test then reads the corner where it lies now, as it would through
// the region's Lo.
func (st *state) cornerMoved(r *region.Region) {
	st.gen++
	if st.ranks != nil {
		st.ranks.Move(r.ID, r.Lo)
	}
	for qi := r.Alive.Next(0); qi >= 0; qi = r.Alive.Next(qi + 1) {
		fr := st.frontier[qi]
		for i := range fr {
			if int(fr[i].region) == r.ID {
				st.kerns[qi].Project(r.Lo, &fr[i].lanes)
			}
		}
	}
}

// syncLive sets region ri's bit in every query's live set to whether the
// region is Alive for the query.
func (st *state) syncLive(ri int) {
	alive := st.regions[ri].Alive
	for qi, set := range st.live {
		if alive.Has(qi) {
			set.Set(ri)
		} else {
			set.Unset(ri)
		}
	}
}

// cornerRanks returns the index of every region's best corner, built anew
// after a region was added.
func (st *state) cornerRanks() *region.CornerRanks {
	if st.ranks == nil {
		st.ranks = region.NewCornerRanks(len(st.regions), len(st.w.OutDims), func(i int) []float64 { return st.regions[i].Lo })
	}
	return st.ranks
}

// scratchSets returns the two reused region sets of the coarse tests,
// sized to the region count.
func (st *state) scratchSets() (a, b region.Bits) {
	n := (len(st.regions) + 63) / 64
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
		var rest []int
		rest = append(rest, st.pending[qi]...)
		var keys []int
		for f := range st.blocked[qi] {
			keys = append(keys, f)
		}
		sort.Ints(keys)
		for _, f := range keys {
			rest = append(rest, st.blocked[qi][f]...)
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
	for _, it := range st.pq.items {
		if st.regions[it.region].Alive == 0 || !st.inQueue[it.region] {
			continue
		}
		ev.Frontier++
		if ev.RunnerUp < 0 || it.bucket > ruBucket ||
			(it.bucket == ruBucket && it.region < ev.RunnerUp) {
			ev.RunnerUp, ev.RunnerUpCSM, ruBucket = it.region, it.score, it.bucket
		}
	}
	ev.Queries = st.reportQueries(st.regions[ri].Alive)
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
	for _, r := range st.regions {
		if r.Alive != 0 {
			ev.Frontier++
		}
	}
	ev.Queries = st.reportQueries(st.regions[ri].Alive)
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
