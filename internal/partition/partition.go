// Package partition implements the coarse input abstraction of §5.1: each
// input relation is partitioned by a d-dimensional quad tree (a 2^d-way
// recursive midpoint split over the numeric attributes). Every leaf cell
// carries its tight attribute bounds and, for each join key column, a
// *signature* capturing the domain values of its member tuples, enabling the
// coarse-level join test "can this cell pair produce even one join result?".
package partition

import (
	"fmt"
	"sort"

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
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
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

// Cell is a leaf of the quad tree: an axis-aligned box of the input space
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

// SplitMode selects the decomposition strategy.
type SplitMode int

const (
	// KDMedian recursively bisects the dimension with the largest extent at
	// its median, yielding a predictable number of equally-populated leaves
	// (the default: cell count ≈ TargetLeaves regardless of d).
	KDMedian SplitMode = iota
	// QuadMidpoint performs the classical 2^d-way midpoint split of the
	// paper's quad-tree description. Leaf counts depend strongly on the
	// data distribution and dimensionality.
	QuadMidpoint
)

// Options controls partitioning granularity.
type Options struct {
	// Mode selects the decomposition strategy (default KDMedian).
	Mode SplitMode
	// TargetLeaves is the desired leaf count for KDMedian (≥ 1).
	TargetLeaves int
	// MaxLeafSize is the largest number of tuples a leaf may hold before it
	// is split (provided MaxDepth allows). Must be ≥ 1.
	MaxLeafSize int
	// MaxDepth bounds the recursion; 0 means a sensible default (12).
	MaxDepth int
	// Keep, when set, is the join-group filter's verdict per row, indexed
	// by tuple ID: bit k marks a row that survives for key column k. A row
	// with no bit set enters no cell. Nil keeps every row for every column.
	Keep []uint64
}

// DefaultOptions returns the granularity used by the benchmark harness:
// a KDMedian decomposition into approximately targetCells leaves for a
// relation of n tuples.
func DefaultOptions(n, targetCells int) Options {
	if targetCells < 1 {
		targetCells = 1
	}
	leaf := n / targetCells
	if leaf < 1 {
		leaf = 1
	}
	return Options{Mode: KDMedian, TargetLeaves: targetCells, MaxLeafSize: leaf, MaxDepth: 12}
}

// Partition builds the quad tree over the relation's numeric attributes and
// returns its leaf cells. Cells are assigned sequential IDs in construction
// order; the decomposition is deterministic for a given relation.
func Partition(rel *tuple.Relation, opt Options) ([]*Cell, error) {
	if opt.MaxLeafSize < 1 {
		return nil, fmt.Errorf("partition: MaxLeafSize must be ≥ 1, got %d", opt.MaxLeafSize)
	}
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = 12
	}
	if rel.Len() == 0 {
		return nil, nil
	}
	d := rel.Schema.NumAttrs()
	if d == 0 {
		return nil, fmt.Errorf("partition: relation %s has no numeric attributes", rel.Schema.Name)
	}
	if d > 16 {
		return nil, fmt.Errorf("partition: %d dimensions exceeds the 2^d split limit (max 16)", d)
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
	switch opt.Mode {
	case KDMedian:
		target := opt.TargetLeaves
		if target < 1 {
			target = 1
		}
		b.kdSplit(members, target, 0)
	case QuadMidpoint:
		lo, hi := rel.Bounds()
		b.split(members, lo, hi, 0)
	default:
		return nil, fmt.Errorf("partition: unknown split mode %d", int(opt.Mode))
	}
	return b.cells, nil
}

// kdSplit bisects the dimension with the largest extent at its median until
// the leaf budget is spent or leaves reach MaxLeafSize.
func (b *builder) kdSplit(members []*tuple.Tuple, budget, depth int) {
	if len(members) == 0 {
		return
	}
	if budget <= 1 || len(members) <= b.opt.MaxLeafSize || len(members) < 2 || depth >= b.opt.MaxDepth {
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
	sorted := append([]*tuple.Tuple(nil), members...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Attr(dim) != sorted[j].Attr(dim) {
			return sorted[i].Attr(dim) < sorted[j].Attr(dim)
		}
		return sorted[i].ID < sorted[j].ID
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

func (b *builder) split(members []*tuple.Tuple, lo, hi []float64, depth int) {
	if len(members) == 0 {
		return
	}
	if len(members) <= b.opt.MaxLeafSize || depth >= b.opt.MaxDepth || degenerate(lo, hi) {
		b.emit(members)
		return
	}
	mid := make([]float64, b.dims)
	for k := 0; k < b.dims; k++ {
		mid[k] = (lo[k] + hi[k]) / 2
	}
	// Bucket members into the 2^d orthants around the midpoint.
	buckets := make(map[uint32][]*tuple.Tuple)
	for _, t := range members {
		var code uint32
		for k := 0; k < b.dims; k++ {
			if t.Attr(k) > mid[k] {
				code |= 1 << uint(k)
			}
		}
		buckets[code] = append(buckets[code], t)
	}
	if len(buckets) == 1 {
		// All members fall into one orthant of the midpoint split (e.g.
		// heavily clustered data): shrink the box to the tight bounds and
		// retry once; if that cannot separate them, emit as a leaf.
		tl, th := tightBounds(members, b.dims)
		if same(tl, lo) && same(th, hi) {
			b.emit(members)
			return
		}
		b.split(members, tl, th, depth+1)
		return
	}
	for code := uint32(0); code < 1<<uint(b.dims); code++ {
		sub := buckets[code]
		if len(sub) == 0 {
			continue
		}
		clo := make([]float64, b.dims)
		chi := make([]float64, b.dims)
		for k := 0; k < b.dims; k++ {
			if code&(1<<uint(k)) != 0 {
				clo[k], chi[k] = mid[k], hi[k]
			} else {
				clo[k], chi[k] = lo[k], mid[k]
			}
		}
		b.split(sub, clo, chi, depth+1)
	}
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

func degenerate(lo, hi []float64) bool {
	for k := range lo {
		if hi[k] > lo[k] {
			return false
		}
	}
	return true
}

func same(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
