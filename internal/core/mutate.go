package core

import (
	"fmt"
	"math"
	"slices"

	"caqe/internal/partition"
	"caqe/internal/region"
	"caqe/internal/skycube"
	"caqe/internal/trace"
	"caqe/internal/tuple"
)

// Table selects the base relation a mutation targets.
type Table int

const (
	TableR Table = iota
	TableT
)

func tableName(tab Table) string {
	if tab == TableR {
		return "r"
	}
	return "t"
}

// ParseTable returns the table a mutation names, "r" or "t" in either case.
func ParseTable(name string) (Table, bool) {
	switch name {
	case "r", "R":
		return TableR, true
	case "t", "T":
		return TableT, true
	}
	return 0, false
}

// TupleData is one row of an append: numeric attributes and join keys
// shaped like the target relation's schema.
type TupleData struct {
	Attrs []float64 `json:"attrs"`
	Keys  []int64   `json:"keys"`
}

// Check is the appended-row rule, stated once for the engine and the
// session that queues rows ahead of it: the row has the schema's arity, its
// attributes are finite (tuple.CheckFinite) and none of its join keys is a
// reserved tombstone. Callers prefix the error with their package name, the
// row's index and the table.
func (row TupleData) Check(schema *tuple.Schema) error {
	if len(row.Attrs) != schema.NumAttrs() || len(row.Keys) != schema.NumKeys() {
		return fmt.Errorf("got %d attrs, %d keys; schema wants %d, %d",
			len(row.Attrs), len(row.Keys), schema.NumAttrs(), schema.NumKeys())
	}
	if err := tuple.CheckFinite(row.Attrs); err != nil {
		return err
	}
	for _, k := range row.Keys {
		if k == TombstoneKeyR || k == TombstoneKeyT {
			return fmt.Errorf("join key %d is reserved for deletes", k)
		}
	}
	return nil
}

// CheckDelete is the delete rule, stated once for the engine and the session
// that queues deletes ahead of it: every row of ids is below n, the table's
// row count, is not in deleted and is named once. Callers prefix the error
// with their package name.
func CheckDelete(table string, ids []int, n int, deleted map[int]bool) error {
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= n || deleted[id] || seen[id] {
			return fmt.Errorf("delete of unknown, duplicate or already-deleted %s row %d", table, id)
		}
		seen[id] = true
	}
	return nil
}

// DeltaStats summarizes one applied mutation.
type DeltaStats struct {
	Appended       int `json:"appended"`
	Deleted        int `json:"deleted"`
	CellsTouched   int `json:"cellsTouched"`
	RegionsRevived int `json:"regionsRevived"`
	RegionsCreated int `json:"regionsCreated"`
	// What a delete's repair touched: live window entries of the deleted
	// rows' results taken out of the shared skyline, and surviving results
	// re-settled in it because they rested on one or gained a query.
	EntriesRemoved int `json:"entriesRemoved"`
	Resettled      int `json:"resettled"`
}

// Add accumulates the counters of o.
func (d *DeltaStats) Add(o DeltaStats) {
	d.Appended += o.Appended
	d.Deleted += o.Deleted
	d.CellsTouched += o.CellsTouched
	d.RegionsRevived += o.RegionsRevived
	d.RegionsCreated += o.RegionsCreated
	d.EntriesRemoved += o.EntriesRemoved
	d.Resettled += o.Resettled
}

// Deleted tuples stay in place under reserved join keys that can never
// match a live tuple: cell positions, cell sizes and row IDs are stable
// across deletes, so join cursors and already-emitted history remain
// valid without rewriting anything. The two sides use distinct sentinels
// so a deleted R-tuple cannot equi-join a deleted T-tuple either.
const (
	TombstoneKeyR int64 = math.MinInt64
	TombstoneKeyT int64 = math.MinInt64 + 1
)

func tombstoneFor(tab Table) int64 {
	if tab == TableR {
		return TombstoneKeyR
	}
	return TombstoneKeyT
}

// Tombstone overwrites keys, the join keys of a deleted row of tab, with the
// table's reserved key.
func Tombstone(tab Table, keys []int64) {
	for k := range keys {
		keys[k] = tombstoneFor(tab)
	}
}

// tupleAddr locates a tuple inside the partition: cell index and position
// in the cell's member slice.
type tupleAddr struct{ cell, pos int }

// indexTuples builds, on the first mutation, the row-ID → (cell, position)
// lookup of both relations: a cache over the partition that placeTuple
// keeps current from then on. A row in no cell has no entry.
func (st *state) indexTuples() {
	if st.tupleLoc[0] != nil {
		return
	}
	for side, cells := range [2][]*partition.Cell{st.space.RCells, st.space.TCells} {
		st.tupleLoc[side] = make(map[int]tupleAddr)
		st.deleted[side] = make(map[int]bool)
		for ci, c := range cells {
			for pos, tp := range c.Tuples {
				st.tupleLoc[side][tp.ID] = tupleAddr{ci, pos}
			}
		}
	}
}

func (st *state) relFor(tab Table) *tuple.Relation {
	if tab == TableR {
		return st.e.r
	}
	return st.e.t
}

func (st *state) cellsFor(tab Table) []*partition.Cell {
	if tab == TableR {
		return st.space.RCells
	}
	return st.space.TCells
}

// cellSets returns an empty set of cell IDs per side, with room for the
// cell placeTuple may open: a side gains one only while it has none.
func (st *state) cellSets() [2]region.Bits {
	return [2]region.Bits{region.NewBits(len(st.space.RCells) + 1), region.NewBits(len(st.space.TCells) + 1)}
}

// Append applies new rows to one base relation of a running execution.
// Each row first meets the join-group filter (joinFilter.admit, each
// comparison charged): a row a live row of its group beats is left out of
// that key column's joins, and a row left out of every one enters no cell.
// The others are delta-partitioned into the best-fitting existing leaf
// cell, the touched cells re-run their signature tests against the
// opposite side (region.Space.Retest, charged like build-time tests), and
// every region over a touched cell is revived or extended for all live
// queries of its passing conditions. Reprocessing a revived region joins
// only the row pairs its join cursor has not seen, so results already
// emitted are neither retracted nor duplicated. A row whose magnitude
// widens the filter's margin first re-admits, through the same path, the
// rows of either side the wider margin no longer drops. Row IDs are
// assigned sequentially and returned. Cell assignment itself is uncharged,
// mirroring the uncharged initial Partition.
func (x *Exec) Append(tab Table, rows []TupleData) ([]int, DeltaStats, error) {
	st := x.st
	var stats DeltaStats
	if len(rows) == 0 {
		return nil, stats, nil
	}
	rel := st.relFor(tab)
	for i, row := range rows {
		if err := row.Check(&rel.Schema); err != nil {
			return nil, stats, fmt.Errorf("core: append row %d to %s: %w", i, rel.Schema.Name, err)
		}
	}
	st.indexTuples()

	ids := make([]int, len(rows))
	touched := st.cellSets()
	cmps := st.filter.cmps
	for i, row := range rows {
		id := rel.Len()
		if err := rel.Append(append([]float64(nil), row.Attrs...), append([]int64(nil), row.Keys...)); err != nil {
			return nil, stats, err
		}
		ids[i] = id
		keep, back := st.filter.admit(int(tab), id, st.deleted)
		for side, readmitted := range back {
			st.grantAll(Table(side), readmitted, touched[side])
		}
		if keep != 0 {
			touched[tab].Set(st.placeTuple(tab, st.cellCopy(tab, id), keep))
		}
	}
	st.clock.CountSkylineCmp(st.filter.cmps - cmps)
	stats.Appended = len(rows)
	st.spread(touched, &stats)
	st.traceDelta("append", tab, &stats)
	x.drained = false
	return ids, stats, nil
}

// cellCopy returns the tuple a cell holds for row id: a standalone copy, since
// relation backing reallocates on growth and cells built at partition time
// point into the old backing — mixing the two would let a delete miss a
// slot.
func (st *state) cellCopy(tab Table, id int) *tuple.Tuple {
	rt := st.relFor(tab).At(id)
	return &tuple.Tuple{ID: id, Attrs: append([]float64(nil), rt.Attrs...), Keys: append([]int64(nil), rt.Keys...)}
}

// grantAll adds rows the join-group filter re-admitted, in ascending ID
// order, to the lists of the key columns each gained: within its cell when
// it has one, else placed as an appended row is. The cells that grew are
// marked in touched.
func (st *state) grantAll(tab Table, rows map[int]uint64, touched region.Bits) {
	ids := make([]int, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		bits := rows[id]
		loc, ok := st.tupleLoc[tab][id]
		if !ok {
			touched.Set(st.placeTuple(tab, st.cellCopy(tab, id), bits))
			continue
		}
		c := st.cellsFor(tab)[loc.cell]
		fileRow(c, c.Tuples[loc.pos], bits)
		touched.Set(loc.cell)
	}
}

// spread is the delta path of cells whose row lists grew, side R first:
// their signatures are re-tested against the opposite side, the regions
// the space gained join the executor, and every region over a touched cell
// is revived.
func (st *state) spread(touched [2]region.Bits, stats *DeltaStats) {
	for side, set := range touched {
		if n := set.Count(); n != 0 {
			stats.CellsTouched += n
			stats.RegionsCreated += st.space.Retest(set, side == int(TableT), st.clock)
			st.growRegions()
			st.reviveAfterAppend(Table(side), set, stats)
		}
	}
}

// placeTuple assigns a new tuple to a leaf cell deterministically: the
// first existing cell (ascending ID) containing the point, else the cell
// with the smallest per-dimension overshoot (ties to the lowest ID). The
// chosen cell's bounds grow in place, and the tuple joins the row lists and
// signatures of the key columns in keep. An append to an empty side opens
// its first cell.
func (st *state) placeTuple(tab Table, tp *tuple.Tuple, keep uint64) int {
	cells := st.cellsFor(tab)
	best, bestCost := -1, math.Inf(1)
	for ci, c := range cells {
		cost := 0.0
		for k, v := range tp.Attrs {
			if v < c.Lo[k] {
				cost += c.Lo[k] - v
			} else if v > c.Hi[k] {
				cost += v - c.Hi[k]
			}
		}
		if cost == 0 {
			best = ci
			break
		}
		if cost < bestCost {
			best, bestCost = ci, cost
		}
	}
	if best < 0 {
		nk := st.relFor(tab).Schema.NumKeys()
		c := &partition.Cell{ID: len(cells), Lo: slices.Clone(tp.Attrs), Hi: slices.Clone(tp.Attrs),
			Rows: make([][]*tuple.Tuple, nk), Sigs: make([]partition.Signature, nk)}
		st.space.AddCell(c, tab == TableT)
		best = c.ID
	}
	c := st.cellsFor(tab)[best]
	for k, v := range tp.Attrs {
		if v < c.Lo[k] {
			c.Lo[k] = v
		}
		if v > c.Hi[k] {
			c.Hi[k] = v
		}
	}
	st.tupleLoc[int(tab)][tp.ID] = tupleAddr{best, len(c.Tuples)}
	c.Tuples = append(c.Tuples, tp)
	fileRow(c, tp, keep)
	return best
}

// fileRow adds tp, a row of cell c, to the row lists and signatures of the
// key columns in keep.
func fileRow(c *partition.Cell, tp *tuple.Tuple, keep uint64) {
	for k := range c.Rows {
		if keep&(1<<uint(k)) != 0 {
			c.Rows[k] = append(c.Rows[k], tp)
			c.Sigs[k] = c.Sigs[k].Insert(tp.Key(k))
		}
	}
}

// liveFor returns every query region ri can serve now: the union of live
// queries over its passing conditions. Cancelled and sealed queries are
// already absent from jcQueries.
func (st *state) liveFor(ri int) skycube.QSet {
	var qs skycube.QSet
	for j := range st.w.JoinConds {
		if st.space.Regions[ri].JCPass&(1<<uint(j)) != 0 {
			qs |= st.jcQueries[j]
		}
	}
	return qs &^ st.cancelled
}

// reviveAfterAppend recomputes the output bounds of every region over a
// touched cell (the cell's box may have grown) and reopens it for all
// live queries of its passing conditions — unlike admission's
// reopen-for-the-new-query-only, new data is new results for every one of
// them, and batch equality at every offset depends on it. The
// admission-time coarse prune is deliberately skipped: dominance among
// regions may have been broken by the mutation, and tuple-level discarding
// re-derives any still-valid prune. Untouched regions keep their state:
// appends only add results, so prior discards remain sound.
func (st *state) reviveAfterAppend(tab Table, touched region.Bits, stats *DeltaStats) {
	for ri, r := range st.space.Regions {
		c := r.RCell
		if tab == TableT {
			c = r.TCell
		}
		if !touched.Has(c.ID) {
			continue
		}
		st.space.Bound(ri)
		st.cornerMoved(ri)
		if live := st.liveFor(ri); live != 0 && st.reopen(ri, live) {
			stats.RegionsRevived++
		}
	}
}

// Delete retires rows from one base relation of a running execution.
// The tuples stay in place under tombstone join keys (positions, cell
// sizes and IDs never shift) and their join results lose all candidacy.
// Whatever was decided with the help of the deleted rows is then redone,
// and nothing else (DESIGN.md §15): the touched cells' signatures are
// rebuilt from their live rows and conditions that no longer pass are
// withdrawn from their regions; rows the join-group filter dropped and no
// kept live row beats any longer are re-admitted through Append's delta
// path; surviving results are granted the live
// same-condition queries their lineage lacks; every region whose
// tuple-level join is incomplete is revived; and the results that rested on
// a deleted result's window entries — or were granted a query — are
// re-settled in the shared skyline. Results already emitted are never
// retracted; the emitted marks keep them from being duplicated. History is
// append-only: a delete changes what remains to be emitted, not what was.
func (x *Exec) Delete(tab Table, ids []int) (DeltaStats, error) {
	st := x.st
	var stats DeltaStats
	if len(ids) == 0 {
		return stats, nil
	}
	st.indexTuples()
	side := int(tab)
	rel := st.relFor(tab)
	if err := CheckDelete(tableName(tab), ids, rel.Len(), st.deleted[side]); err != nil {
		return stats, fmt.Errorf("core: %w", err)
	}

	// Re-admission: a row the join-group filter dropped because a deleted
	// row beat it may now have no live beater. The groups the deleted rows
	// were kept in are re-checked while their keys still name them; the rows
	// that come back go through Append's delta path below, where the cursors
	// see them as new, so none of their results can repeat an emitted one.
	for _, id := range ids {
		st.deleted[side][id] = true
	}
	filtered := st.filter.cmps
	back := st.filter.release(side, ids, st.deleted[side])
	st.clock.CountSkylineCmp(st.filter.cmps - filtered)

	// Tombstone in place, in the relation and in the row's cell (which holds
	// its own copy of an appended row).
	touched := region.NewBits(len(st.cellsFor(tab)))
	for _, id := range ids {
		Tombstone(tab, rel.At(id).Keys)
		if loc, ok := st.tupleLoc[side][id]; ok {
			Tombstone(tab, st.cellsFor(tab)[loc.cell].Tuples[loc.pos].Keys)
			touched.Set(loc.cell)
		}
	}
	stats.Deleted = len(ids)
	stats.CellsTouched = touched.Count()

	// A signature is the key set of the cell's live rows. Left as it was, a
	// pair whose only matches were deleted would keep passing its
	// condition, and the next admission would prune other regions against
	// one that can no longer produce anything.
	for ci := touched.Next(0); ci >= 0; ci = touched.Next(ci + 1) {
		c := st.cellsFor(tab)[ci]
		for k, rows := range c.Rows {
			live := c.Sigs[k][:0]
			for _, tp := range rows {
				if !st.deleted[side][tp.ID] {
					live = append(live, tp.Key(k))
				}
			}
			c.Sigs[k] = partition.NewSignature(live)
		}
	}
	st.space.Withdraw(touched, tab == TableT, st.clock)

	grown := st.cellSets()
	st.grantAll(tab, back, grown[side])
	st.spread(grown, &stats)

	// Kill the deleted rows' results and take their live window entries
	// out: what those entries dominated, where they were still alive, is
	// what the windows may be missing now.
	removed := st.removedScratch[:0]
	for c, chunk := range st.payloads {
		for i := range chunk {
			info := &chunk[i]
			if info.jc >= 0 && (st.deleted[0][info.rid] || st.deleted[1][info.tid]) {
				info.lineage, info.jc = 0, -1
				removed = st.shared.Remove(c<<payloadShift+i, removed)
			}
		}
	}
	stats.EntriesRemoved = len(removed)

	// Revive every region with live queries whose tuple-level join is
	// incomplete for some live condition: build-time prunes, admission
	// prunes and result-driven discards all fold into "never fully
	// joined", and any of them may have rested on a deleted dominator.
	// Fully-joined regions already contributed all their results, so the
	// lineage grant below covers them.
	for ri := range st.space.Regions {
		live := st.liveFor(ri)
		if live == 0 {
			continue
		}
		if r := &st.space.Regions[ri]; r.Alive == 0 && st.fullyJoined(ri) {
			r.RQL |= live
			continue
		}
		if st.reopen(ri, live) {
			stats.RegionsRevived++
		}
	}

	// The results to re-settle, in payload order: a survivor whose lineage
	// lacks a live query of its condition is granted it (the grant ignores
	// per-region prunes: a sound prune only ever removed dominated results,
	// so the extra candidacy is re-dominated or parked behind a revived
	// region's frontier, while an unsound one, resting on a now-deleted
	// dominator, is exactly what this repairs), and so is one a removed
	// entry dominates in its node's subspace for a query of its lineage the
	// entry was alive for. Each dominance test is a charged comparison.
	resettle := st.resettleScratch[:0]
	var cmps int64
	for c, chunk := range st.payloads {
		for i := range chunk {
			info := &chunk[i]
			if info.jc < 0 {
				continue // a deleted row's result
			}
			p := c<<payloadShift + i
			if grant := st.jcQueries[info.jc] &^ st.cancelled &^ info.lineage; grant != 0 {
				info.lineage |= grant
				resettle = append(resettle, p)
				continue
			}
			for k := range removed {
				rm := &removed[k]
				if info.lineage&rm.Alive == 0 {
					continue
				}
				cmps++
				if rm.Kern.Dominates(rm.Point, st.shared.PointVals(p)) {
					resettle = append(resettle, p)
					break
				}
			}
		}
	}
	st.clock.CountSkylineCmp(cmps)
	stats.Resettled = len(resettle)

	// Re-settle: judged afresh under the full lineage at every node serving
	// it, and queued for a safety check only where the result is newly a
	// candidate. Everything else — entries, alive bits, clean flags, parked
	// results, emitted marks — stays as it is.
	var live, affected skycube.QSet
	for _, qs := range st.jcQueries {
		live |= qs &^ st.cancelled
	}
	for _, p := range resettle {
		info := st.payloads.at(p)
		now, was := st.shared.Resettle(p, info.lineage)
		fresh := now &^ was &^ info.emitted & live
		for qi := fresh.Next(0); qi >= 0; qi = fresh.Next(qi + 1) {
			st.pending[qi] = append(st.pending[qi], p)
		}
		affected |= fresh
	}
	st.removedScratch, st.resettleScratch = removed[:0], resettle[:0]
	st.emitSafe(affected)

	st.traceDelta("delete", tab, &stats)
	x.drained = false
	return stats, nil
}

// fullyJoined reports whether region ri's tuple-level join has consumed
// every current tuple pair for every condition with live queries.
func (st *state) fullyJoined(ri int) bool {
	for j := range st.w.JoinConds {
		if st.space.Regions[ri].JCPass&(1<<uint(j)) != 0 && st.jcQueries[j] != 0 && !st.joinComplete(ri, j) {
			return false
		}
	}
	return true
}

// Seal closes a finished query permanently: later mutations no longer
// revive regions or extend candidacy for it. Sessions seal a non-standing
// query the moment its stream finishes, so a stream that reported done can
// never owe results. The caller is responsible for only sealing queries
// that are QueryDone; sealing is irreversible for the slot's current
// occupant (a later Admit reusing the slot re-registers the newcomer).
func (x *Exec) Seal(qi int) error {
	st := x.st
	if qi < 0 || qi >= len(st.w.Queries) {
		return fmt.Errorf("core: seal of unknown query %d", qi)
	}
	st.jcQueries[st.w.Queries[qi].JC] &^= 1 << uint(qi)
	st.sealed = st.sealed.Add(qi)
	return nil
}

// traceDelta records one applied mutation as a KindDelta event.
func (st *state) traceDelta(op string, tab Table, d *DeltaStats) {
	if st.tracer == nil {
		return
	}
	ev := st.newEvent(trace.KindDelta)
	ev.Op = op + "-" + tableName(tab)
	ev.Count = d.Appended + d.Deleted
	ev.Cells = d.CellsTouched
	ev.Revived = d.RegionsRevived
	ev.Removed = d.EntriesRemoved
	ev.Resettled = d.Resettled
	st.tracer.Trace(ev)
}
