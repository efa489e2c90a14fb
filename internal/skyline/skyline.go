// Package skyline implements single-relation skyline algorithms used as
// building blocks and baselines (§8 of the paper): the naive quadratic
// algorithm, Block-Nested-Loops (BNL, Börzsönyi et al.), and Sort-Filter-
// Skyline (SFS, Chomicki et al.).
//
// All algorithms operate over arbitrary point sets in a given subspace and
// count every pairwise dominance comparison through an optional
// metrics.Clock, so that competing strategies can be compared on the paper's
// "CPU usage" metric. The sort-based algorithms precompute their monotone
// scores once instead of re-deriving them inside the comparator.
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

// BNL computes the skyline with the Block-Nested-Loops algorithm: maintain a
// window of incomparable points; each incoming point is compared against the
// window, evicting points it dominates and being discarded if dominated.
func BNL(v preference.Subspace, points []Point, clock *metrics.Clock) []Point {
	c := counter{clock}
	kern := preference.NewKernel(v)
	window := make([]Point, 0, 16)
	for _, p := range points {
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if dominated {
				keep = append(keep, w)
				continue
			}
			c.cmp(1)
			switch kern.Compare(w.Vals, p.Vals) {
			case -1: // w dominates p
				dominated = true
				keep = append(keep, w)
			case 1: // p dominates w: evict w
			default:
				keep = append(keep, w)
			}
		}
		window = keep
		if !dominated {
			window = append(window, p)
		}
	}
	return window
}

// SFS computes the skyline with Sort-Filter-Skyline: first sort by a
// monotone scoring function (the sum over the subspace dimensions), then run
// a single filtering pass. After sorting, no point can dominate an earlier
// point, so survivors are final as soon as they enter the window.
func SFS(v preference.Subspace, points []Point, clock *metrics.Clock) []Point {
	c := counter{clock}
	kern := preference.NewKernel(v)
	window := make([]Point, 0, 16)
	for _, p := range SortByMonotoneScore(v, points) {
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

// SortByMonotoneScore returns a copy of points sorted ascending by the sum
// of the subspace dimensions (a monotone function of the dominance order:
// if a ≺_V b then score(a) < score(b)). Ties broken by payload for
// determinism.
func SortByMonotoneScore(v preference.Subspace, points []Point) []Point {
	kern := preference.NewKernel(v)
	sorted := append([]Point(nil), points...)
	keys := make([]float64, len(sorted))
	for i := range sorted {
		keys[i] = kern.Sum(sorted[i].Vals)
	}
	sort.Stable(&scoredSorter{pts: sorted, key: keys})
	return sorted
}
