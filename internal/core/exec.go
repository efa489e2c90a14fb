package core

import (
	"errors"
	"fmt"

	"caqe/internal/metrics"
	"caqe/internal/region"
	"caqe/internal/run"
	"caqe/internal/skycube"
	"caqe/internal/workload"
)

// ErrQuerySlotsExhausted is returned by Admit when all 64 query bit
// positions hold queries that are still live — neither cancelled nor
// sealed — so no slot can be reclaimed for the new query. Sessions bound
// live queries well below 64 (Config.MaxConcurrent), so hitting this means
// the caller admitted past its own concurrency gate.
var ErrQuerySlotsExhausted = errors.New("core: all query slots hold live queries")

// Exec is a stepping handle over one CAQE execution: the same Algorithm 1
// loop as a batch run, but advanced one scheduling decision at a time so an
// online session can interleave query admission and cancellation with
// processing. A StartExec followed by Step-until-false and Finish produces
// a report byte-identical to Engine.ExecuteRun on the same inputs.
//
// Exec is not safe for concurrent use; the session subsystem serializes
// all calls on one executor goroutine.
type Exec struct {
	st      *state
	clock   *metrics.Clock
	rep     *run.Report
	drained bool
}

// StartExec builds the shared plan — partitions, output space, min-max
// cuboid — over the engine's workload and returns a stepping handle. The
// output space is built with KeepPruned so that regions the coarse-level
// skyline retires (or cell pairs no initial query joins) keep their
// geometry available for queries admitted mid-run; the retired tail is
// born done (Alive empty) and costs the scheduler nothing until an
// admission revives it.
func (e *Engine) StartExec(clock *metrics.Clock, rep *run.Report) (*Exec, error) {
	if e.opt.DataOrderScheduling {
		return nil, fmt.Errorf("core: stepping execution requires CSM scheduling (DataOrderScheduling, the S-JFSL strategy, runs in batch only)")
	}
	cuboid, space, filter, err := e.plan(clock, true)
	if err != nil {
		return nil, err
	}
	shared := e.newShared(cuboid, space, clock)

	st := newState(e, clock, space, shared, rep, filter)
	st.initQueue()
	st.deferrals = 0
	return &Exec{st: st, clock: clock, rep: rep}, nil
}

// Step advances the execution by one scheduling decision (one region
// processed at tuple level, with its discard/emission/feedback follow-ups).
// It returns false when no schedulable region remains; the first such call
// also flushes every still-parked final result, exactly like the end of a
// batch run. A later Admit can make Step return true again.
func (x *Exec) Step() bool {
	if x.st.step() {
		x.drained = false
		return true
	}
	if !x.drained {
		x.st.flushRemaining()
		x.drained = true
	}
	return false
}

// Now returns the current virtual time in seconds.
func (x *Exec) Now() float64 { return x.clock.Now() / metrics.VirtualSecond }

// NumQueries returns the number of query slots the execution currently
// holds, including cancelled or drained ones awaiting reuse. Local indices
// are stable while a query is live but are recycled once all 64 slots fill
// (see Admit); report indices are the never-reused identifiers.
func (x *Exec) NumQueries() int { return len(x.st.w.Queries) }

// Finish finalizes the report with the current virtual time and counters.
func (x *Exec) Finish() {
	x.rep.Finish(x.clock.Now()/metrics.VirtualSecond, x.clock.Counters())
}

// Admit adds one query to the running execution and returns its local
// index (also its report index for session-built reports). The query's
// contract tracker is created from q.Contract — the session passes an
// arrival-anchored contract so utilities are measured from admission, not
// from session start. Admission performs real, clock-charged work:
//
//   - the shared skyline gains a dedicated window node for the query
//     (skycube.AddDynamicQuery);
//   - if no earlier query used the join condition, its signature test runs
//     over every retained cell pair (region.Space.ExtendJC);
//   - regions whose pair passed the join condition are coarse-pruned for
//     the new query alone, mirroring the build-time coarse skyline;
//   - every existing result produced under the query's join condition in
//     a surviving region is seeded into its window;
//   - surviving regions are revived (state.reopen) unless a seeded
//     candidate already dominates their best corner: live ones extend
//     their Alive set, already-processed (or retired) ones whose join
//     under the condition is incomplete reopen for the new query only —
//     the join cursor guarantees a reopened region never re-joins a tuple
//     pair it already produced, so no earlier emission can be duplicated
//     or retracted.
//
// Finally the new query's seeded candidates get their first safety check,
// emitting any result already guaranteed final.
//
// Local indices are recycled: when all 64 bit positions are occupied, the
// lowest slot whose query is cancelled, or sealed and drained, is scrubbed
// — skyline, regions, payload lineage — and handed to the new query, which
// gets a fresh report index (ReportIndex; report indices are never reused,
// so emissions of successive occupants of one slot stay distinct). A query
// that is merely done keeps its slot: it may be a standing query a later
// mutation revives. Only when every slot holds a live query does Admit
// fail, with ErrQuerySlotsExhausted.
func (x *Exec) Admit(q workload.Query, estTotal int) (int, error) {
	st := x.st
	w := st.w
	reuse := -1
	if len(w.Queries) >= workload.MaxQueries {
		for i := range w.Queries {
			if st.cancelled.Has(i) || (st.sealed.Has(i) && x.QueryDone(i)) {
				reuse = i
				break
			}
		}
		if reuse < 0 {
			return -1, ErrQuerySlotsExhausted
		}
	}
	if err := q.Validate(len(w.JoinConds), len(w.OutDims)); err != nil {
		return -1, fmt.Errorf("core: %w", err)
	}

	var qi int
	if reuse >= 0 {
		// The incoming query validated above; only now is the retired
		// occupant of the reclaimed slot scrubbed.
		st.retireSlot(reuse, x.Now())
		if err := st.shared.SetDynamicQuery(reuse, q.Pref); err != nil {
			return -1, err
		}
		qi = reuse
		w.Queries[qi] = q
	} else {
		var err error
		qi, err = st.shared.AddDynamicQuery(q.Pref)
		if err != nil {
			return -1, err
		}
		if qi != len(w.Queries) {
			return -1, fmt.Errorf("core: skyline query index %d out of sync with workload size %d", qi, len(w.Queries))
		}
		w.Queries = append(w.Queries, q)
	}
	st.bindQuery(qi, q, x.rep.AddQuery(q.Contract.NewTracker(estTotal)))
	st.jcQueries[q.JC] = st.jcQueries[q.JC].Add(qi)

	// Region space: test the query's join condition over every cell pair if
	// no earlier query used it; fresh tail regions start retired and only
	// the candidacy pass below can revive them.
	st.space.ExtendJC(q.JC, st.clock)
	st.growRegions()

	serve := st.admissionCandidates(qi, q.JC)

	// Seed existing results produced under the query's join condition into
	// its window, in deterministic ascending payload order; survivors queue
	// for their first safety check. Results from regions the admission-time
	// coarse prune rejected are skipped — a batch build would never have
	// considered them for this query, and seeding them could perturb the
	// final result set when the dominating region's join is empty. Results
	// of deleted rows carry no condition (Delete sets jc to -1): they are
	// history, not data, and no new query may see them.
	for c, chunk := range st.payloads {
		for i := range chunk {
			info := &chunk[i]
			if info.jc != q.JC || !st.space.Regions[info.reg].RQL.Has(qi) {
				continue
			}
			info.lineage = info.lineage.Add(qi)
			if p := c<<payloadShift + i; st.shared.InsertForQuery(p, qi) {
				st.pending[qi] = append(st.pending[qi], p)
			}
		}
	}

	// Revive the surviving regions for the new query. A done region whose
	// join under the condition is complete stays closed — its results
	// were just seeded — and a region whose best corner a seeded candidate
	// already dominates is discarded for the query exactly as Algorithm 1
	// discards it mid-run, before it costs a scheduling decision.
	qbit := skycube.QSet(0).Add(qi)
	champs, bound := st.champions(qi, st.pending[qi])
	for ri := serve.Next(0); ri >= 0; ri = serve.Next(ri + 1) {
		if st.space.Regions[ri].Alive == 0 && st.joinComplete(ri, q.JC) {
			continue
		}
		if st.cornerDominated(qi, champs, bound, st.space.LoRow(ri)) {
			st.traceDiscard(ri, qi)
			st.clock.CountRegionPruned()
			continue
		}
		st.reopen(ri, qbit)
	}
	st.emitSafe(qbit)
	x.drained = false
	return qi, nil
}

// admissionCandidates runs the coarse-level skyline for the new query alone
// (§5.2 at admission): of the regions whose pair passed join condition jc,
// one fully dominated in the query's preference by another cannot
// contribute a result. The survivors gain the query in their lineage and
// are returned as a set of region indices.
func (st *state) admissionCandidates(qi, jc int) region.Bits {
	jbit := uint64(1) << uint(jc)
	regs := st.space.Regions
	var cands []int
	for ri := range regs {
		if regs[ri].JCPass&jbit != 0 {
			cands = append(cands, ri)
		}
	}
	serve := region.NewBits(len(regs))
next:
	for _, ri := range cands {
		for _, o := range cands {
			if o == ri {
				continue
			}
			st.clock.CountCellOp(1)
			if notWeak, strict := st.uses.Pair(st.space.HiRow(o), st.space.LoRow(ri)); (strict &^ notWeak).Has(qi) {
				st.clock.CountRegionPruned()
				continue next
			}
		}
		regs[ri].RQL = regs[ri].RQL.Add(qi)
		serve.Set(ri)
	}
	return serve
}

// Cancel retires a query mid-run: its regions lose their annotation (a
// region left with no query is discarded exactly like one killed by
// generated results), its parked candidates are dropped, and its contract
// tracker is finalized at the current virtual time. Results already
// emitted stay emitted — cancellation never retracts. Cancelling an
// already-cancelled query is a no-op.
func (x *Exec) Cancel(qi int) error {
	st := x.st
	if qi < 0 || qi >= len(st.w.Queries) {
		return fmt.Errorf("core: cancel of unknown query %d", qi)
	}
	if st.cancelled.Has(qi) {
		return nil
	}
	st.cancelled = st.cancelled.Add(qi)
	st.dropQuery(qi)
	st.rep.Trackers[st.qremap[qi]].Finalize(x.Now())
	return nil
}

// dropQuery takes query qi out of scheduling: no condition or region serves
// it any longer — a region left serving nobody is discarded exactly like one
// killed by generated results — and its parked candidates and emission
// frontier are emptied.
func (st *state) dropQuery(qi int) {
	bit := skycube.QSet(0).Add(qi)
	st.jcQueries[st.w.Queries[qi].JC] &^= bit
	live := st.live.sets[qi]
	for ri := live.Next(0); ri >= 0; ri = live.Next(ri + 1) {
		if st.live.kill(ri, bit) {
			st.clock.CountRegionPruned()
			st.releaseEdges(ri)
		}
	}
	st.pending[qi] = st.pending[qi][:0]
	st.blocked[qi] = make(map[int][]int)
	st.releaseRecords(qi)
	st.frontierDirty[qi] = false
}

// retireSlot scrubs every trace of the finished query at local index qi so
// the bit position can be handed to a new occupant: its tracker is
// finalized (if cancellation didn't already do so), it is dropped from
// scheduling, region lineage and payload lineage/emitted bits are cleared —
// a stale lineage or emitted bit would leak the predecessor's result
// bookkeeping into the new query — and the shared skyline retires the bit.
// The slot's report index remains untouched: delivered results and final
// satisfaction stay in the report.
func (st *state) retireSlot(qi int, now float64) {
	bit := skycube.QSet(0).Add(qi)
	if !st.cancelled.Has(qi) {
		st.rep.Trackers[st.qremap[qi]].Finalize(now)
	}
	st.cancelled &^= bit
	st.sealed &^= bit
	st.dropQuery(qi)
	for ri := range st.space.Regions {
		st.space.Regions[ri].RQL &^= bit
	}
	for _, chunk := range st.payloads {
		for i := range chunk {
			chunk[i].lineage &^= bit
			chunk[i].emitted &^= bit
		}
	}
	st.shared.RetireQuery(qi)
}

// Cancelled reports whether a query has been cancelled.
func (x *Exec) Cancelled(qi int) bool { return x.st.cancelled.Has(qi) }

// ReportIndex returns the report index currently mapped to local query qi.
func (x *Exec) ReportIndex(qi int) int { return x.st.qremap[qi] }

// NextReportIndex returns the report index the next successful Admit will
// assign. Sessions use it to register delivery routing before admission,
// since admission can emit the new query's first results synchronously.
func (x *Exec) NextReportIndex() int { return len(x.rep.Trackers) }

// QueryDone reports whether a query can receive no further results right
// now: it was cancelled, or no live region serves it and no candidate
// awaits a safety check. Late admissions never flip it back — they only
// revive regions for the admitted query itself — but a base-table
// mutation can: new data revives regions for every live query, so a
// session that wants "done" to be final must Seal the query first. A done
// slot may also be reclaimed by a later Admit, after which the index
// refers to the new occupant.
func (x *Exec) QueryDone(qi int) bool {
	st := x.st
	if qi < 0 || qi >= len(st.w.Queries) {
		return true
	}
	if st.cancelled.Has(qi) {
		return true
	}
	if len(st.pending[qi]) > 0 || len(st.blocked[qi]) > 0 {
		return false
	}
	return st.live.sets[qi].Next(0) < 0
}

// Delivered returns the number of results delivered so far to a query.
func (x *Exec) Delivered(qi int) int {
	return len(x.rep.PerQuery[x.st.qremap[qi]])
}
