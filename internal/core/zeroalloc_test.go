package core

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"caqe/internal/datagen"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/region"
	"caqe/internal/run"
	"caqe/internal/workload"
)

// TestDisabledTracerZeroAlloc pins the fast path of the instrumentation:
// with no tracer and no legacy hook attached, every trace helper on the
// optimizer's hot loop must cost a nil check and nothing else — zero
// allocations per decision, defer, discard and feedback update.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	st := &state{
		e:       &Engine{opt: Options{}},
		clock:   metrics.NewClock(),
		qremap:  []int{0, 1},
		weights: []float64{1, 1},
	}
	vs := []float64{0.25, 0.75}
	if allocs := testing.AllocsPerRun(200, func() {
		st.traceDecision(3, 1.5)
		st.traceDataOrderDecision(3)
		st.traceDefer(2, 0.5)
		st.traceDiscard(4, 1)
		st.traceOpBatch(opNameSignatureJoin, 3, 64)
		st.traceFeedback(vs, 0.75, 0.5)
	}); allocs != 0 {
		t.Fatalf("disabled-tracer trace helpers allocate %.1f per run", allocs)
	}
}

// TestUpdateWeightsZeroAlloc pins the Eq. 11 feedback, which runs after
// every scheduling decision, at zero allocations once its scratch has grown:
// the steady state of the executor allocates only for durable results.
func TestUpdateWeightsZeroAlloc(t *testing.T) {
	w := testWorkload(4, 3, workload.UniformPriority, c3s)
	rep := run.NewReport("CAQE", w, nil)
	st := &state{
		e:       &Engine{opt: Options{}},
		w:       w,
		clock:   metrics.NewClock(),
		rep:     rep,
		qremap:  []int{0, 1, 2, 3},
		weights: []float64{1, 1, 1, 1},
	}
	st.cancelled = st.cancelled.Add(2)
	rep.Emit(run.Emission{Query: 1, Out: []float64{1, 1, 1}, Time: 1})
	st.updateWeights()
	if st.weights[0] == 1 || st.weights[2] != 1 {
		t.Fatalf("weights %v: the feedback did not run, or moved a cancelled query", st.weights)
	}
	if allocs := testing.AllocsPerRun(200, st.updateWeights); allocs != 0 {
		t.Fatalf("updateWeights allocates %.1f per decision", allocs)
	}
}

// TestRefreshFrontierZeroAlloc pins the frontier refresh at zero allocations
// once its scratch has grown: the refresh after the query's first frontier
// region dies, which takes the kept path, re-tests the corners the region
// blocked and promotes some to the frontier, and the full sort-filter after
// the region comes back and the order is collected afresh, reuse the kept
// records, the frontier and the re-test scratch. A kept corner stays 24
// bytes and a frontier corner 40.
func TestRefreshFrontierZeroAlloc(t *testing.T) {
	if size := unsafe.Sizeof(keptCorner{}); size != 24 {
		t.Fatalf("keptCorner is %d bytes, want 24", size)
	}
	if size := unsafe.Sizeof(liveCorner{}); size != 40 {
		t.Fatalf("liveCorner is %d bytes, want 40", size)
	}
	w := testWorkload(4, 3, workload.UniformPriority, c3s)
	r, tt := testPair(t, 300, 3, datagen.AntiCorrelated, 0.05, 1)
	e := mustEngine(t, w, r, tt, Options{})
	clock := metrics.NewClock()
	cuboid, space, filter, err := e.plan(clock, false)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(e, clock, space, e.newShared(cuboid, space, clock), run.NewReport("CAQE", e.w, nil), filter)
	const qi = 0
	st.frontierDirty[qi] = true
	st.refreshFrontier(qi)
	ko := &st.order[qi]
	if len(st.frontier[qi]) < 2 || ko.n <= len(st.frontier[qi]) {
		t.Fatalf("%d live corners, %d on the frontier: nothing to re-test", ko.n, len(st.frontier[qi]))
	}
	first := st.frontier[qi][0]
	dies := st.regions[first.region]
	before := slices.Clone(st.frontier[qi])
	die := func() {
		st.live.kill(dies, 1<<qi)
		st.frontierDirty[qi] = true
		st.refreshFrontier(qi)
	}
	die()
	if ko.gen != st.gen {
		t.Fatal("the refresh after a death sorted afresh")
	}
	if slices.ContainsFunc(st.frontier[qi], func(c liveCorner) bool { return c.region == first.region }) {
		t.Fatalf("region %d stays on the frontier after it died", dies.ID)
	}
	if !slices.ContainsFunc(st.frontier[qi], func(c liveCorner) bool { return !slices.Contains(before, c) }) {
		t.Fatalf("region %d's death promotes none of the corners it blocked", dies.ID)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		st.live.revive(dies, 1<<qi)
		st.gen++
		st.frontierDirty[qi] = true
		st.refreshFrontier(qi)
		die()
	}); allocs != 0 {
		t.Fatalf("refreshFrontier allocates %.1f per refresh pair", allocs)
	}
}

// TestDiscardZeroAlloc pins a steady-state discard pass, and the cell join
// that feeds it, at zero allocations once their scratch has grown: after
// the first scheduled region's step on anti-correlated data, the discard
// against every result so far (the champions, their bound and the tests)
// and the join of a region's cell pair reuse the state's buffers.
func TestDiscardZeroAlloc(t *testing.T) {
	w := testWorkload(4, 3, workload.UniformPriority, c3s)
	r, tt := testPair(t, 300, 3, datagen.AntiCorrelated, 0.05, 1)
	e := mustEngine(t, w, r, tt, Options{})
	clock := metrics.NewClock()
	cuboid, space, filter, err := e.plan(clock, false)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(e, clock, space, e.newShared(cuboid, space, clock), run.NewReport("CAQE", e.w, nil), filter)
	st.initQueue()
	if !st.step() {
		t.Fatal("no region to process")
	}
	var payloads []int
	for c, chunk := range st.payloads {
		for i := range chunk {
			payloads = append(payloads, c<<payloadShift+i)
		}
	}
	rc := st.regions[slices.IndexFunc(st.regions, func(r *region.Region) bool { return r.Alive == 0 })]
	st.discardDominated(rc.RQL, payloads)
	before := clock.Counters().CellOps
	st.discardDominated(rc.RQL, payloads)
	if len(payloads) == 0 || clock.Counters().CellOps == before {
		t.Fatalf("%d results, a discard pass charging %d cell operations: nothing to test", len(payloads), clock.Counters().CellOps-before)
	}
	if allocs := testing.AllocsPerRun(100, func() { st.discardDominated(rc.RQL, payloads) }); allocs != 0 {
		t.Fatalf("discardDominated allocates %.1f per pass", allocs)
	}

	left, right := st.joinRows(rc, 0)
	var js join.Scratch
	if res := js.NestedLoop(w.JoinConds[0], w.OutDims, left, right, clock); len(res) == 0 {
		t.Fatalf("%d × %d rows join to nothing", len(left), len(right))
	}
	if allocs := testing.AllocsPerRun(100, func() { js.NestedLoop(w.JoinConds[0], w.OutDims, left, right, clock) }); allocs != 0 {
		t.Fatalf("NestedLoop allocates %.1f per join", allocs)
	}
}

// TestCoarseProbesZeroAlloc pins the coarse steps that run per scheduling
// decision at zero allocations once their scratch has grown: ProgCount's
// dominator sets, probed on the corner index; the CSM of every live region,
// its ProgCounts computed afresh and kept; and a release of
// a region's dependency edges that pushes the regions it roots into the
// queue (scoring each) — restored and released again, so every call finds
// work.
func TestCoarseProbesZeroAlloc(t *testing.T) {
	w := testWorkload(4, 3, workload.UniformPriority, c3s)
	r, tt := testPair(t, 300, 3, datagen.AntiCorrelated, 0.05, 1)
	e := mustEngine(t, w, r, tt, Options{})
	clock := metrics.NewClock()
	cuboid, space, filter, err := e.plan(clock, false)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(e, clock, space, e.newShared(cuboid, space, clock), run.NewReport("CAQE", e.w, nil), filter)
	st.initQueue()

	rc := st.regions[len(st.regions)-1]
	listed := 0
	doms := st.dominatorsByQuery(rc)
	for qi := rc.Alive.Next(0); qi >= 0; qi = rc.Alive.Next(qi + 1) {
		listed += doms[qi].Count()
	}
	if listed == 0 {
		t.Fatalf("region %d has no dominators: nothing to list", rc.ID)
	}
	if allocs := testing.AllocsPerRun(200, func() { st.dominatorsByQuery(rc) }); allocs != 0 {
		t.Fatalf("dominatorsByQuery allocates %.1f per call", allocs)
	}

	// The CSM of every live region, computed afresh (a generation bump
	// stales every kept value) and then kept.
	exact, volume := 0, 0
	for _, r := range st.regions {
		for qi := r.Alive.Next(0); qi >= 0; qi = r.Alive.Next(qi + 1) {
			if st.space.CellCount(r, w.Queries[qi].Pref) <= exactProgCountCap {
				exact++
			} else {
				volume++
			}
		}
	}
	if exact == 0 || volume == 0 {
		t.Fatalf("%d exact and %d estimated ProgCounts: a path goes untested", exact, volume)
	}
	scoreAll := func() {
		for _, r := range st.regions {
			if r.Alive != 0 {
				st.csm(r)
			}
		}
	}
	scoreAll()
	if allocs := testing.AllocsPerRun(50, func() { st.gen++; scoreAll() }); allocs != 0 {
		t.Fatalf("csm allocates %.1f per pass computing ProgCount afresh", allocs)
	}
	hits := 0
	doms = st.dominatorsByQuery(rc)
	for qi := rc.Alive.Next(0); qi >= 0; qi = rc.Alive.Next(qi + 1) {
		if k := *st.keptProg(rc.ID, qi); k.gen == st.gen && k.n == int32(doms[qi].Count()) && k.n > 0 {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("region %d keeps no ProgCount: nothing to reuse", rc.ID)
	}
	if allocs := testing.AllocsPerRun(50, scoreAll); allocs != 0 {
		t.Fatalf("csm allocates %.1f per pass reusing kept ProgCounts", allocs)
	}

	ri := slices.IndexFunc(st.regions, func(r *region.Region) bool {
		row := st.edgeRow(r.ID)
		for j := row.Next(0); j >= 0; j = row.Next(j + 1) {
			if st.indegree[j] == 1 {
				return true
			}
		}
		return false
	})
	if ri < 0 {
		t.Fatal("no region is the last blocker of another: a release roots nothing")
	}
	row := slices.Clone(st.edgeRow(ri))
	indegree := slices.Clone(st.indegree)
	queuedFlags := slices.Clone(st.live.queued)
	queued := len(st.live.pq.items)
	release := func() {
		copy(st.edgeRow(ri), row)
		copy(st.indegree, indegree)
		copy(st.live.queued, queuedFlags)
		st.live.pq.items = st.live.pq.items[:queued]
		st.releaseEdges(ri)
	}
	release()
	if len(st.live.pq.items) == queued {
		t.Fatal("the release pushed nothing")
	}
	if allocs := testing.AllocsPerRun(200, release); allocs != 0 {
		t.Fatalf("releaseEdges allocates %.1f per release", allocs)
	}
}

// TestExactProgCountZeroAlloc pins the exact ProgCount at zero allocations
// once its table has grown: a call reuses the state's integer scratch.
func TestExactProgCountZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pref := preference.NewSubspace(0, 1, 2)
	sp, rc, base, at := progGrid(rng, []int{9, 6, 5})
	doms := make([]*region.Region, 40)
	for j := range doms {
		rf := &region.Region{Lo: make([]float64, 3)}
		for k := range rf.Lo {
			rf.Lo[k] = at(k, base[k]+rng.Intn(9))
		}
		doms[j] = rf
	}
	st := &state{space: sp, clock: metrics.NewClock()}
	cells := sp.CellCount(rc, pref)
	set, corners := listForm(nil, nil, doms)
	if n := st.exactProgCount(rc, pref, set, corners, cells); n == 0 || n == float64(cells) {
		t.Fatalf("%g of %d cells uncovered: the table decides nothing", n, cells)
	}
	if allocs := testing.AllocsPerRun(200, func() { st.exactProgCount(rc, pref, set, corners, cells) }); allocs != 0 {
		t.Fatalf("exactProgCount allocates %.1f per call", allocs)
	}
}

// TestDisabledTracerZeroAllocReport covers the report side: with no
// tracer attached, StartTrace must not install one and FlushTrace must be
// free.
func TestDisabledTracerZeroAllocReport(t *testing.T) {
	rep := &run.Report{Strategy: "test"}
	rep.StartTrace(nil)
	if rep.Tracer() != nil {
		t.Fatal("nil tracer should not attach")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		rep.StartTrace(nil)
		rep.FlushTrace()
	}); allocs != 0 {
		t.Fatalf("disabled-tracer report hooks allocate %.1f per run", allocs)
	}
}

// TestPayloadStoreGrowsWithoutCopying pins the result store's layout
// contract: adding results — across several chunk boundaries — never moves
// an earlier one, IDs are dense, and the chunk-wise scan visits every
// result once in ID order.
func TestPayloadStoreGrowsWithoutCopying(t *testing.T) {
	var ps payloadStore
	var first *payloadInfo
	const n = 2*payloadChunk + 3
	for i := 0; i < n; i++ {
		if p := ps.add(payloadInfo{rid: i, tid: -i}); p != i {
			t.Fatalf("add #%d returned payload %d", i, p)
		}
		if i == 0 {
			first = ps.at(0)
		}
	}
	if len(ps) != 3 || len(ps[2]) != 3 {
		t.Fatalf("%d results in %d chunks, the last holding %d", n, len(ps), len(ps[len(ps)-1]))
	}
	if first != ps.at(0) {
		t.Fatal("growth moved payload 0")
	}
	next := 0
	for c, chunk := range ps {
		for i := range chunk {
			p := c<<payloadShift + i
			if p != next || chunk[i].rid != p || ps.at(p) != &chunk[i] {
				t.Fatalf("scan reached payload %d (rid %d) at position %d", p, chunk[i].rid, next)
			}
			next++
		}
	}
	if next != n {
		t.Fatalf("scan visited %d results, want %d", next, n)
	}
}
