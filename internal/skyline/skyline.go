// Package skyline implements single-relation skyline algorithms used as
// building blocks and baselines (§8 of the paper): the naive quadratic
// algorithm (the tests' oracle), Block-Nested-Loops (BNL, Börzsönyi et al.)
// and Sort-Filter-Skyline (SFS, Chomicki et al.).
//
// Window is the one incremental BNL window: BNL folds a point set through
// it, and so does every other block-nested-loops fold in the module — the
// SSMJ and TimeShared comparison strategies and the cluster coordinator's
// merge — each carrying its own item type instead of a payload index.
//
// All algorithms operate over arbitrary point sets in a given subspace and
// count every pairwise dominance comparison through an optional
// metrics.Clock, so that competing strategies can be compared on the paper's
// "CPU usage" metric. SFS precomputes its monotone scores once instead of
// re-deriving them inside the comparator.
package skyline

import (
	"sort"

	"caqe/internal/metrics"
	"caqe/internal/preference"
)

// Point is a d-dimensional point with an opaque payload index. Algorithms
// return the surviving points; callers use Payload to map results back to
// tuples or join results.
type Point struct {
	Vals    []float64
	Payload int
}

// counter abstracts the comparison accounting so algorithms work with or
// without a clock.
type counter struct{ clock *metrics.Clock }

func (c counter) cmp(n int64) {
	if c.clock != nil {
		c.clock.CountSkylineCmp(n)
	}
}

// Naive computes the skyline of points in subspace v by comparing every pair
// (the ground-truth oracle used by tests).
func Naive(v preference.Subspace, points []Point, clock *metrics.Clock) []Point {
	c := counter{clock}
	kern := preference.NewKernel(v)
	var out []Point
	for i := range points {
		dominated := false
		for j := range points {
			if i == j {
				continue
			}
			c.cmp(1)
			if kern.Dominates(points[j].Vals, points[i].Vals) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, points[i])
		}
	}
	return out
}

// Window is an incremental block-nested-loops skyline window over subspace
// v: the points offered so far that no other offered point strictly
// dominates, in insertion order, each carrying an item of type T. Equal
// points do not dominate each other, so ties all stay.
type Window[T any] struct {
	kern  preference.Kernel
	clock *metrics.Clock
	vals  [][]float64
	items []T
	// Cmps counts the dominance comparisons Insert has made.
	Cmps int64
}

// NewWindow returns an empty window over subspace v whose comparisons are
// charged to clock (which may be nil).
func NewWindow[T any](v preference.Subspace, clock *metrics.Clock) *Window[T] {
	return &Window[T]{kern: preference.NewKernel(v), clock: clock}
}

// Insert offers one point (its coordinates and its item) to the window. It
// compares the newcomer with the window's points in order, one skyline
// comparison each, until one of them strictly dominates it; the points the
// newcomer strictly dominates are evicted, every other point stays in
// place. It reports whether the newcomer joined the window (at the end).
// vals is kept, not copied.
func (w *Window[T]) Insert(vals []float64, item T) bool {
	var cmps int64
	dominated := false
	keep := 0
	for i, wv := range w.vals {
		if !dominated {
			cmps++
			switch w.kern.Compare(wv, vals) {
			case 1:
				continue // the newcomer strictly dominates wv: evict it
			case -1:
				dominated = true
			}
		}
		w.vals[keep], w.items[keep] = wv, w.items[i]
		keep++
	}
	w.vals, w.items = w.vals[:keep], w.items[:keep]
	w.Cmps += cmps
	if w.clock != nil {
		w.clock.CountSkylineCmp(cmps)
	}
	if dominated {
		return false
	}
	w.vals = append(w.vals, vals)
	w.items = append(w.items, item)
	return true
}

// Items returns the window's items in window order. The slice aliases the
// window and is valid until the next Insert.
func (w *Window[T]) Items() []T { return w.items }

// BNL computes the skyline with the Block-Nested-Loops algorithm: every
// point in input order is inserted into one Window.
func BNL(v preference.Subspace, points []Point, clock *metrics.Clock) []Point {
	w := NewWindow[Point](v, clock)
	for _, p := range points {
		w.Insert(p.Vals, p)
	}
	return w.Items()
}

// SFS computes the skyline with Sort-Filter-Skyline: first sort by a
// monotone scoring function (the sum over the subspace dimensions), then run
// a single filtering pass. After sorting, no point can dominate an earlier
// point, so survivors are final as soon as they enter the window.
func SFS(v preference.Subspace, points []Point, clock *metrics.Clock) []Point {
	c := counter{clock}
	kern := preference.NewKernel(v)
	window := make([]Point, 0, 16)
	for _, p := range sortByMonotoneScore(v, points) {
		dominated := false
		for _, w := range window {
			c.cmp(1)
			if kern.Dominates(w.Vals, p.Vals) {
				dominated = true
				break
			}
		}
		if !dominated {
			window = append(window, p)
		}
	}
	return window
}

// scoredSorter stable-sorts points by a precomputed primary key, breaking
// ties by payload. A concrete sort.Interface avoids both the per-comparison
// score recomputation and the reflection-based swapping of sort.SliceStable.
type scoredSorter struct {
	pts []Point
	key []float64
}

func (s *scoredSorter) Len() int { return len(s.pts) }
func (s *scoredSorter) Less(i, j int) bool {
	if s.key[i] != s.key[j] {
		return s.key[i] < s.key[j]
	}
	return s.pts[i].Payload < s.pts[j].Payload
}
func (s *scoredSorter) Swap(i, j int) {
	s.pts[i], s.pts[j] = s.pts[j], s.pts[i]
	s.key[i], s.key[j] = s.key[j], s.key[i]
}

// sortByMonotoneScore returns a copy of points sorted ascending by the sum
// of the subspace dimensions (a monotone function of the dominance order:
// if a ≺_V b then score(a) < score(b)). Ties broken by payload for
// determinism.
func sortByMonotoneScore(v preference.Subspace, points []Point) []Point {
	kern := preference.NewKernel(v)
	sorted := append([]Point(nil), points...)
	keys := make([]float64, len(sorted))
	for i := range sorted {
		keys[i] = kern.Sum(sorted[i].Vals)
	}
	sort.Stable(&scoredSorter{pts: sorted, key: keys})
	return sorted
}
