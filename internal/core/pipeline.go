package core

import (
	"fmt"

	"caqe/internal/core/op"
	"caqe/internal/skycube"
	"caqe/internal/tuple"
)

// This file is the pipelined executor: Algorithm 1's tuple-level region
// processing restructured as an operator chain
//
//	PartitionScan → SignatureJoin → DominanceFilter → Emit
//
// driven one region at a time by the contract-driven scheduler (step /
// runDataOrder picks the region; the pipeline does everything the old
// monolithic processRegion-and-followups body did). Handoff between
// operators uses op.Batch flat-coordinate batches, synchronously and
// depth-first, so every counted operation — join probe, skyline
// comparison, cell operation, region retirement — is charged in exactly
// the order of the pre-pipeline executor and reports stay byte-identical
// (TestGoldenReports pins this against the pre-refactor fingerprints).
//
// Responsibilities per stage:
//
//   - PartitionScan: resolves the scheduled region to its quad-tree input
//     cell pair and offers the pair downstream once per join condition; on
//     close it retires the region (processed, CountRegionDone) and marks
//     the served queries' emission frontiers dirty.
//   - SignatureJoin: the JC mask test (queries alive on the region that
//     use the condition, minus conditions whose join cursor already covers
//     the cells — what late admissions and mutations rely on to reopen
//     regions without re-emitting), then the tuple-level nested-loop join
//     of the pairs beyond the cursor fanned over the worker pool,
//     materialized into a coordinate batch.
//   - DominanceFilter: dominance kernel dispatch — inserts every result
//     into the shared min-max cuboid skyline (window updates, candidate
//     lineage), then on close discards regions dominated by the new
//     results and releases the region's dependency edges (CSM mode only,
//     via the scheduler-provided retire hook).
//   - Emit: re-vets the affected queries' candidates and emits every
//     result now guaranteed final (safety check against the live-region
//     frontier).
//
// Operator names, referenced by traces and explain output.
const (
	opNamePartitionScan   = "PartitionScan"
	opNameSignatureJoin   = "SignatureJoin"
	opNameDominanceFilter = "DominanceFilter"
	opNameEmit            = "Emit"
)

// buildPipeline wires the operator chain for this state's options. The
// chain structure is the single source of truth for explain output: an
// explain-only state (just the engine set) builds the same pipeline it
// would execute.
func (st *state) buildPipeline() {
	emit := &emitOp{st: st}
	dom := &domOp{st: st, next: emit}
	if !st.e.opt.DataOrderScheduling {
		// Releasing a retired region's dependency edges pushes newly-rooted
		// regions into the scheduler queue (scoring them advances the
		// clock), so it must happen between region discarding and the
		// emission safety sweep — exactly where the monolithic loop did it.
		// The data-order driver has no queue and never releases.
		dom.retire = st.releaseEdges
	}
	join := &joinOp{st: st, next: dom}
	scan := &scanOp{st: st, next: join}
	st.pipe = op.NewPipeline(scan, join, dom, emit)
}

// operatorTree describes the executor as a tree: the scheduler driving the
// root operator, with the operator chain nested beneath it.
func (st *state) operatorTree() op.Node {
	root := op.Node{
		Name:   "CSMScheduler",
		Detail: "Algorithm 1: pop max-CSM root region, lazy score refresh, Eq. 11 feedback",
	}
	if st.e.opt.DataOrderScheduling {
		root = op.Node{
			Name:   "DataOrderScheduler",
			Detail: "blind pipeline order (S-JFSL): regions in construction order, no contract scheduling",
		}
	}
	root.Children = []op.Node{st.pipe.Explain()}
	return root
}

// ---------------------------------------------------------------------------
// PartitionScan

// scanOp is the pipeline source: it maps the scheduled region to its input
// cell pair and offers the pair downstream once per join condition, in
// condition order. Closing the scan retires the region.
type scanOp struct {
	st   *state
	next op.Operator
	hdr  op.Batch // reused header batch (scan → join handoff)
}

func (o *scanOp) Name() string { return opNamePartitionScan }

func (o *scanOp) Detail() string {
	return fmt.Sprintf("region → quad-tree cell pair, %d join condition(s)", len(o.st.e.w.JoinConds))
}

func (o *scanOp) Open(region int) {}

// Scan offers the region's cell pair under every join condition, in
// condition order — the downstream mask test decides which survive.
func (o *scanOp) Scan(region int) {
	st := o.st
	rc := st.regions[region]
	for j := range st.w.JoinConds {
		b := &o.hdr
		b.Reset(0)
		b.Region, b.JC = region, j
		b.Left, b.Right = rc.RCell.Tuples, rc.TCell.Tuples
		st.traceOpBatch(opNamePartitionScan, region, len(b.Left)*len(b.Right))
		o.next.Push(b)
	}
}

func (o *scanOp) Push(b *op.Batch) {} // source: no upstream

// Close retires the region: tuple-level processing is complete, the
// region-done work is charged, and every query the region served gets its
// emission frontier marked dirty — all before the dominance epilogue runs
// downstream, preserving the monolithic loop's charge order.
func (o *scanOp) Close(region int) {
	st := o.st
	st.processed[region] = true
	st.clock.CountRegionDone()
	st.markFrontiersDirty(st.regions[region].Alive)
}

// ---------------------------------------------------------------------------
// SignatureJoin

// joinOp tests each offered (cell pair, join condition) against the
// signature-join mask — queries alive on the region that use the condition
// and tuple pairs its join cursor has not consumed — and materializes the
// survivors' nested-loop join into a flat-coordinate batch.
type joinOp struct {
	st   *state
	next op.Operator
	pool op.Pool // freelist for the join → dominance coordinate batches
}

func (o *joinOp) Name() string { return opNameSignatureJoin }

func (o *joinOp) Detail() string {
	return fmt.Sprintf("JC mask test + nested-loop join over %d worker(s)", o.st.e.opt.Workers)
}

func (o *joinOp) Open(region int) {}

// Push runs the mask test and, for survivors, the tuple-level join. The
// nested-loop probes fan out over the engine's worker pool; per-worker
// counter shards are merged back in (join-condition, shard) order before
// the batch is handed downstream, so the produced payload IDs, schedules
// and timestamps are bit-identical to a 1-worker run.
func (o *joinOp) Push(b *op.Batch) {
	st := o.st
	rc := st.regions[b.Region]
	qmask := st.jcQueries[b.JC] & rc.Alive
	if qmask == 0 || st.joinComplete(rc, b.JC) {
		return
	}
	cur := st.cursor(b.Region, b.JC)
	cl, ct := cur.nr, cur.nt
	*cur = joinCursor{len(b.Left), len(b.Right)}
	out := o.pool.Get(len(st.w.OutDims))
	out.Region, out.JC, out.Qmask = b.Region, b.JC, uint64(qmask)
	// The scratch results (and their flat coordinate backing) are only
	// valid until the next join call, so each segment is copied into the
	// coordinate batch before the next one (or the scan's next condition)
	// runs. A fresh region joins as one full segment; a reopened one joins
	// only the pairs beyond its cursor: new-left × all-right, then
	// old-left × new-right.
	for _, seg := range [2][2][]*tuple.Tuple{{b.Left[cl:], b.Right}, {b.Left[:cl], b.Right[ct:]}} {
		if len(seg[0]) == 0 || len(seg[1]) == 0 {
			continue
		}
		results := st.js.NestedLoopPool(st.w.JoinConds[b.JC], st.w.OutDims, seg[0], seg[1], st.clock, st.pool)
		for _, res := range results {
			out.Append(res.RID, res.TID, res.Out)
		}
	}
	if out.Len() == 0 {
		o.pool.Put(out)
		return
	}
	st.traceOpBatch(opNameSignatureJoin, out.Region, out.Len())
	o.next.Push(out)
	o.pool.Put(out)
}

func (o *joinOp) Close(region int) {}

// ---------------------------------------------------------------------------
// DominanceFilter

// domOp inserts every joined result into the shared min-max cuboid skyline
// (per-query window updates with the batch's lineage) and queues the
// survivors for their first safety check. Closing the region runs the
// dominance epilogue: discard regions dominated by the generated results,
// release the retired region's dependency edges, and hand the affected
// query set to the emitter.
type domOp struct {
	st   *state
	next op.Operator
	// retire releases the region's dependency edges after the discard pass
	// (pushing newly-rooted regions into the scheduler queue). Nil under
	// data-order scheduling, which has no queue.
	retire  func(region int)
	created []int    // payload IDs created for the open region (reused)
	hdr     op.Batch // reused header batch (dominance → emit handoff)
}

func (o *domOp) Name() string { return opNameDominanceFilter }

func (o *domOp) Detail() string {
	d := "shared skycube insert + dominated-region discard"
	if o.st.e.opt.DisableRegionDiscard {
		d = "shared skycube insert; region discard disabled"
	}
	return d
}

func (o *domOp) Open(region int) { o.created = o.created[:0] }

// Push inserts one coordinate batch into the shared skyline in row order:
// payload IDs are assigned sequentially, the shared arena keeps each
// point's durable coordinates, and every query still alive for the point
// gains a pending candidate.
func (o *domOp) Push(b *op.Batch) {
	st := o.st
	lineage := skycube.QSet(b.Qmask)
	for i := 0; i < b.Len(); i++ {
		payload := st.payloads.add(payloadInfo{
			rid: b.RIDs[i], tid: b.TIDs[i], jc: b.JC, reg: b.Region, lineage: lineage,
		})
		alive := st.shared.Insert(payload, b.Row(i), lineage)
		o.created = append(o.created, payload)
		for qi := alive.Next(0); qi >= 0; qi = alive.Next(qi + 1) {
			st.pending[qi] = append(st.pending[qi], payload)
		}
	}
}

// Close runs Algorithm 1's "discard regions dominated by generated
// tuple(s)" step over the region's accumulated results, releases the
// region's own dependency edges (CSM mode), and pushes the affected query
// set — the region's queries plus every query that lost a region — to the
// emitter.
func (o *domOp) Close(region int) {
	st := o.st
	rc := st.regions[region]
	var killed skycube.QSet
	if !st.e.opt.DisableRegionDiscard {
		killed = st.discardDominated(rc, o.created)
	}
	if o.retire != nil {
		o.retire(region)
	}
	b := &o.hdr
	b.Reset(0)
	b.Region = region
	b.Qmask = uint64(rc.Alive | killed)
	st.traceOpBatch(opNameDominanceFilter, region, len(o.created))
	o.next.Push(b)
}

// ---------------------------------------------------------------------------
// Emit

// emitOp is the pipeline sink: for every affected query it re-vets parked
// and pending candidates against the live-region frontier and emits each
// result the moment it is provably final (§6 progressive result
// reporting).
type emitOp struct {
	st *state
}

func (o *emitOp) Name() string { return opNameEmit }

func (o *emitOp) Detail() string {
	return "frontier refresh + safety vet, progressive emission of final results"
}

func (o *emitOp) Open(region int) {}

func (o *emitOp) Push(b *op.Batch) {
	o.st.emitSafe(skycube.QSet(b.Qmask))
}

func (o *emitOp) Close(region int) {}
