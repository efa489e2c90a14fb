// Package partition implements the coarse input abstraction of §5.1. The
// paper builds it as a d-dimensional quad tree; here each input relation is
// partitioned by a k-d median split over the numeric attributes, whose leaf
// count tracks the requested target on every distribution and at every d
// (DESIGN.md §5). Every leaf cell carries its tight attribute bounds and,
// for each join key column, a *signature* capturing the domain values of
// its member tuples, enabling the coarse-level join test "can this cell
// pair produce even one join result?".
package partition

import (
	"fmt"
	"slices"

	"caqe/internal/metrics"
	"caqe/internal/tuple"
)

// Signature is the set of distinct join-key values present in a cell for one
// key column (Example 14's L[country], L[part] sets), held as an ascending
// run of distinct values.
type Signature []int64

// Intersects reports whether the two signatures share any value — the
// condition |Sig_a ∩ Sig_b| ≠ ∅ of §5.1. The smaller signature (s on a tie)
// is probed against the larger in ascending value order, one cell-level
// operation charged to the clock per probed value up to the first hit; both
// runs being ascending, the probes are one merge walk.
func (s Signature) Intersects(o Signature, clock *metrics.Clock) bool {
	small, large := s, o
	if len(large) < len(small) {
		small, large = large, small
	}
	probes, hit, j := len(small), false, 0
	for i, v := range small {
		for j < len(large) && large[j] < v {
			j++
		}
		if j == len(large) {
			break // every later probe misses too
		}
		if large[j] == v {
			probes, hit = i+1, true
			break
		}
	}
	if clock != nil {
		clock.CountCellOp(int64(probes))
	}
	return hit
}

// Insert returns the signature with v added, in order; a value already
// present leaves it as it is.
func (s Signature) Insert(v int64) Signature {
	at, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	return slices.Insert(s, at, v)
}

// NewSignature sorts and deduplicates vals in place and returns the
// signature they form, capped at its length.
func NewSignature(vals []int64) Signature {
	slices.Sort(vals)
	return slices.Clip(slices.Compact(vals))
}

// Cell is a leaf of the decomposition: an axis-aligned box of the input space
// with its member tuples and per-key-column signatures. The paper's
// L_i^R(l_i, u_i) notation maps to Lo and Hi (tight bounds over members).
type Cell struct {
	ID     int
	Lo, Hi []float64 // tight per-dimension bounds over member tuples
	Tuples []*tuple.Tuple
	// Rows holds, per key column, the members that survive the join-group
	// filter for that column (Options.Keep): what the column's signature
	// and every join on it read. Without a filter each list is Tuples.
	Rows [][]*tuple.Tuple
	Sigs []Signature // index-aligned with the relation's key columns, over Rows
}

// String renders the cell compactly.
func (c *Cell) String() string {
	return fmt.Sprintf("L%d[%v %v] n=%d", c.ID, c.Lo, c.Hi, len(c.Tuples))
}

// maxDepth bounds the split recursion.
const maxDepth = 12

// Options controls partitioning granularity.
type Options struct {
	// TargetLeaves is the desired leaf count (values < 1 mean 1).
	TargetLeaves int
	// MaxLeafSize is the largest number of tuples a leaf may hold before it
	// is split (provided the depth bound allows). Must be ≥ 1.
	MaxLeafSize int
	// Keep, when set, is the join-group filter's verdict per row, indexed
	// by tuple ID: bit k marks a row that survives for key column k. A row
	// with no bit set enters no cell. Nil keeps every row for every column.
	Keep []uint64
}

// DefaultOptions returns the granularity used by the benchmark harness:
// a decomposition into approximately targetCells leaves for a relation of
// n tuples.
func DefaultOptions(n, targetCells int) Options {
	if targetCells < 1 {
		targetCells = 1
	}
	leaf := n / targetCells
	if leaf < 1 {
		leaf = 1
	}
	return Options{TargetLeaves: targetCells, MaxLeafSize: leaf}
}

// Partition splits the relation over its numeric attributes and returns the
// leaf cells. Cells are assigned sequential IDs in construction order; the
// decomposition is deterministic for a given relation. The cells' structs,
// bounds, member and row lists and signatures are capped subslices of a
// few arrays shared by the relation's cells, so a list a mutation appends
// to is reallocated for its own cell alone.
func Partition(rel *tuple.Relation, opt Options) ([]*Cell, error) {
	if opt.MaxLeafSize < 1 {
		return nil, fmt.Errorf("partition: MaxLeafSize must be ≥ 1, got %d", opt.MaxLeafSize)
	}
	if rel.Len() == 0 {
		return nil, nil
	}
	d := rel.Schema.NumAttrs()
	if d == 0 {
		return nil, fmt.Errorf("partition: relation %s has no numeric attributes", rel.Schema.Name)
	}

	b := &builder{rel: rel, opt: opt, dims: d, order: make([]int32, 0, rel.Len())}
	for i := range rel.Tuples {
		if opt.Keep == nil || opt.Keep[rel.Tuples[i].ID] != 0 {
			b.order = append(b.order, int32(i))
		}
	}
	if len(b.order) == 0 {
		return nil, nil
	}
	b.keys = make([]uint64, len(b.order))
	b.kdSplit(0, len(b.order), max(opt.TargetLeaves, 1), 0)
	return b.cells(), nil
}

type builder struct {
	rel  *tuple.Relation
	opt  Options
	dims int
	// order holds the members' row positions; the members of every node of
	// the split are one span of it, in the order of the node's parent's
	// split (row order at the root).
	order  []int32
	keys   []uint64
	sorter KeySorter
	leaves [][2]int // the leaves' spans of order, in emission order
}

// kdSplit bisects the span [lo, hi) of the members on the dimension with
// the largest extent at its median, ordering it by (attribute, ID), until
// the leaf budget is spent or leaves reach MaxLeafSize.
func (b *builder) kdSplit(lo, hi, budget, depth int) {
	n := hi - lo
	if n == 0 {
		return
	}
	if budget <= 1 || n <= b.opt.MaxLeafSize || n < 2 || depth >= maxDepth {
		b.leaves = append(b.leaves, [2]int{lo, hi})
		return
	}
	seg, keys := b.order[lo:hi], b.keys[lo:hi]
	dim, ext := 0, -1.0
	for k := 0; k < b.dims; k++ {
		mn := b.rel.Tuples[seg[0]].Attrs[k]
		mx := mn
		for _, i := range seg[1:] {
			if x := b.rel.Tuples[i].Attrs[k]; x < mn {
				mn = x
			} else if x > mx {
				mx = x
			}
		}
		if e := mx - mn; e > ext {
			dim, ext = k, e
		}
	}
	if ext <= 0 {
		b.leaves = append(b.leaves, [2]int{lo, hi}) // all members identical on every dimension
		return
	}
	// Attributes are finite and IDs unique within a relation, so the order
	// is total: a sort on the attribute (−0 tied with +0), then each run of
	// tied attributes sorted on ID.
	for j, i := range seg {
		keys[j] = FloatKey(b.rel.Tuples[i].Attrs[dim] + 0)
	}
	b.sorter.Sort(keys, seg)
	for j := 0; j < n; {
		e := j + 1
		for e < n && keys[e] == keys[j] {
			e++
		}
		if e-j > 1 {
			for p := j; p < e; p++ {
				keys[p] = uint64(b.rel.Tuples[seg[p]].ID) ^ 1<<63
			}
			b.sorter.Sort(keys[j:e], seg[j:e])
		}
		j = e
	}
	mid := lo + n/2
	b.kdSplit(lo, mid, budget/2, depth+1)
	b.kdSplit(mid, hi, budget-budget/2, depth+1)
}

// cells finalizes the leaves: tight bounds, per-key row lists and
// signatures over their members, each list a capped subslice of its side's
// one array, so a row appended to one cell's list later cannot overwrite
// another's. A key column every member of a cell survives for shares its
// member list.
func (b *builder) cells() []*Cell {
	nk, nl, d := b.rel.Schema.NumKeys(), len(b.leaves), b.dims
	cells, out := make([]Cell, nl), make([]*Cell, nl)
	members := make([]*tuple.Tuple, len(b.order))
	for j, i := range b.order {
		members[j] = &b.rel.Tuples[i]
	}
	bounds := make([]float64, 2*nl*d)
	rows, sigs := make([][]*tuple.Tuple, nl*nk), make([]Signature, nl*nk)
	var rowArena []*tuple.Tuple
	if b.opt.Keep != nil {
		rowArena = make([]*tuple.Tuple, 0, len(members)*nk)
	}
	sigArena, at := make([]int64, len(members)*nk), 0
	for ci, span := range b.leaves {
		c := &cells[ci]
		ms := members[span[0]:span[1]:span[1]]
		lo, hi := bounds[2*ci*d:(2*ci+1)*d:(2*ci+1)*d], bounds[(2*ci+1)*d:(2*ci+2)*d:(2*ci+2)*d]
		copy(lo, ms[0].Attrs)
		copy(hi, ms[0].Attrs)
		for _, t := range ms[1:] {
			for k, x := range t.Attrs[:d] {
				if x < lo[k] {
					lo[k] = x
				}
				if x > hi[k] {
					hi[k] = x
				}
			}
		}
		*c = Cell{ID: ci, Lo: lo, Hi: hi, Tuples: ms, Rows: rows[ci*nk : (ci+1)*nk : (ci+1)*nk], Sigs: sigs[ci*nk : (ci+1)*nk : (ci+1)*nk]}
		for k := range nk {
			rs := ms
			if b.opt.Keep != nil {
				bit, from := uint64(1)<<uint(k), len(rowArena)
				for _, t := range ms {
					if b.opt.Keep[t.ID]&bit != 0 {
						rowArena = append(rowArena, t)
					}
				}
				if len(rowArena)-from < len(ms) {
					rs = rowArena[from:len(rowArena):len(rowArena)]
				} else {
					rowArena = rowArena[:from]
				}
			}
			run := sigArena[at : at+len(rs)]
			for j, t := range rs {
				run[j] = t.Key(k)
			}
			c.Rows[k], c.Sigs[k] = rs, NewSignature(run)
			at += len(c.Sigs[k])
		}
		out[ci] = c
	}
	return out
}
