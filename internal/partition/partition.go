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
	"cmp"
	"fmt"
	"slices"

	"caqe/internal/metrics"
	"caqe/internal/tuple"
)

// Signature is the set of distinct join-key values present in a cell for one
// key column (Example 14's L[country], L[part] sets).
type Signature map[int64]struct{}

// Intersects reports whether the two signatures share any value — the
// condition |Sig_a ∩ Sig_b| ≠ ∅ of §5.1. The smaller signature is probed
// against the larger in ascending value order, so the number of probes
// charged to the clock is deterministic (map iteration order is not).
func (s Signature) Intersects(o Signature, clock *metrics.Clock) bool {
	small, large := s, o
	if len(large) < len(small) {
		small, large = large, small
	}
	keys := make([]int64, 0, len(small))
	for v := range small {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	for _, v := range keys {
		if clock != nil {
			clock.CountCellOp(1)
		}
		if _, ok := large[v]; ok {
			return true
		}
	}
	return false
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
// decomposition is deterministic for a given relation.
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

	members := make([]*tuple.Tuple, 0, rel.Len())
	for i := range rel.Tuples {
		if tp := rel.At(i); opt.Keep == nil || opt.Keep[tp.ID] != 0 {
			members = append(members, tp)
		}
	}
	if len(members) == 0 {
		return nil, nil
	}

	b := &builder{numKeys: rel.Schema.NumKeys(), opt: opt, dims: d}
	b.kdSplit(members, max(opt.TargetLeaves, 1), 0)
	return b.cells, nil
}

// kdSplit bisects the dimension with the largest extent at its median until
// the leaf budget is spent or leaves reach MaxLeafSize.
func (b *builder) kdSplit(members []*tuple.Tuple, budget, depth int) {
	if len(members) == 0 {
		return
	}
	if budget <= 1 || len(members) <= b.opt.MaxLeafSize || len(members) < 2 || depth >= maxDepth {
		b.emit(members)
		return
	}
	lo, hi := tightBounds(members, b.dims)
	dim, ext := 0, -1.0
	for k := 0; k < b.dims; k++ {
		if e := hi[k] - lo[k]; e > ext {
			dim, ext = k, e
		}
	}
	if ext <= 0 {
		b.emit(members) // all members identical on every dimension
		return
	}
	// Attributes are finite and IDs unique within a relation, so the order
	// is total and an unstable sort gives the one result.
	sorted := append([]*tuple.Tuple(nil), members...)
	slices.SortFunc(sorted, func(a, b *tuple.Tuple) int {
		if c := cmp.Compare(a.Attr(dim), b.Attr(dim)); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	mid := len(sorted) / 2
	b.kdSplit(sorted[:mid], budget/2, depth+1)
	b.kdSplit(sorted[mid:], budget-budget/2, depth+1)
}

type builder struct {
	cells   []*Cell
	numKeys int
	opt     Options
	dims    int
}

// emit finalizes a leaf: tight bounds, per-key row lists and signatures
// over its members. The member slice is capacity-clamped, since it shares
// its backing with the leaf's siblings: a row appended to one leaf later
// must not overwrite another's. A key column every member survives for
// shares the member slice the same way.
func (b *builder) emit(members []*tuple.Tuple) {
	members = members[:len(members):len(members)]
	lo, hi := tightBounds(members, b.dims)
	c := &Cell{ID: len(b.cells), Lo: lo, Hi: hi, Tuples: members}
	c.Rows = make([][]*tuple.Tuple, b.numKeys)
	c.Sigs = make([]Signature, b.numKeys)
	for k := 0; k < b.numKeys; k++ {
		rows := members
		if keep := b.opt.Keep; keep != nil {
			bit, n := uint64(1)<<uint(k), 0
			for _, t := range members {
				if keep[t.ID]&bit != 0 {
					n++
				}
			}
			if n < len(members) {
				rows = make([]*tuple.Tuple, 0, n)
				for _, t := range members {
					if keep[t.ID]&bit != 0 {
						rows = append(rows, t)
					}
				}
			}
		}
		sig := make(Signature)
		for _, t := range rows {
			sig[t.Key(k)] = struct{}{}
		}
		c.Rows[k], c.Sigs[k] = rows, sig
	}
	b.cells = append(b.cells, c)
}

func tightBounds(members []*tuple.Tuple, d int) (lo, hi []float64) {
	lo = append([]float64(nil), members[0].Attrs...)
	hi = append([]float64(nil), members[0].Attrs...)
	for _, t := range members[1:] {
		for k := 0; k < d; k++ {
			if t.Attr(k) < lo[k] {
				lo[k] = t.Attr(k)
			}
			if t.Attr(k) > hi[k] {
				hi[k] = t.Attr(k)
			}
		}
	}
	return lo, hi
}
