package preference

// Kernel is a dominance comparator bound to one subspace: the value hot
// loops hold so that a comparison names two points and nothing else. Every
// relation is one loop over the subspace that leaves on the first dimension
// that decides it; DominatesIn and WeakDominatesIn are the same loops under
// their free-function names. Straight-line d = 1..4 arms were tried here
// and measured slower than the loop at every d (DESIGN.md §7);
// the one specialisation that pays compares points projected ahead of time
// (Project, WeakLanes: all four lanes, no branch, on operands the scan has
// in hand), which the sum-sorted windows and the scheduler's frontier both
// use. Methods never allocate.
type Kernel struct {
	sub Subspace
}

// NewKernel builds the comparator for subspace v. The subspace is captured
// by reference and read on every comparison; callers must not mutate it
// afterwards.
func NewKernel(v Subspace) Kernel { return Kernel{sub: v} }

// Sub returns the subspace the kernel compares in.
func (k *Kernel) Sub() Subspace { return k.sub }

// Dominates reports a ≺_V b (strict subspace dominance, Definition 2).
func (k *Kernel) Dominates(a, b []float64) bool { return DominatesIn(k.sub, a, b) }

// WeakDominates reports a ⪯_V b (a[k] ≤ b[k] on every dimension of V).
func (k *Kernel) WeakDominates(a, b []float64) bool { return WeakDominatesIn(k.sub, a, b) }

// Relate reports (a ⪯_V b, b ⪯_V a) in one pass. The four combinations
// classify the pair completely: (true, true) = equal in V, (true, false) =
// a ≺_V b, (false, true) = b ≺_V a, (false, false) = incomparable.
func (k *Kernel) Relate(a, b []float64) (aWeakB, bWeakA bool) {
	aWeakB, bWeakA = true, true
	for _, d := range k.sub {
		if a[d] > b[d] {
			aWeakB = false
		} else if a[d] < b[d] {
			bWeakA = false
		}
		if !aWeakB && !bWeakA {
			return
		}
	}
	return
}

// Compare classifies the dominance relationship between a and b in V:
// -1 if a ≺_V b, +1 if b ≺_V a, 0 if incomparable or equal.
func (k *Kernel) Compare(a, b []float64) int {
	aWeakB, bWeakA := k.Relate(a, b)
	switch {
	case aWeakB && !bWeakA:
		return -1
	case bWeakA && !aWeakB:
		return 1
	default:
		return 0
	}
}

// Sum returns the coordinate sum of a over the subspace — the monotone
// score used by the sum-sorted window algorithms. It adds left to right:
// window sort keys are recomputed from the arena (skycube's find) and must
// come out bit-equal.
func (k *Kernel) Sum(a []float64) float64 {
	s := 0.0
	for _, d := range k.sub {
		s += a[d]
	}
	return s
}

// Lanes is a point projected onto a subspace of at most four dimensions,
// zero-padded beyond it. Zero-padding makes 0 ≤ 0 hold on every unused lane,
// so weak dominance over the subspace is the unconditional conjunction of
// the four lanes (WeakLanes): fixed-size operands a scan holds by value, with
// no arena access, bounds checks or branching on the dimensionality.
type Lanes [4]float64

// FitsLanes reports whether the kernel's subspace fits Lanes: at most four
// dimensions.
func (k *Kernel) FitsLanes() bool { return len(k.sub) <= len(Lanes{}) }

// Project writes a projected onto the kernel's subspace into p and reports
// whether the subspace fits Lanes (FitsLanes); one that does not leaves p
// all zero, and the caller compares through the kernel instead. It fills the
// caller's lanes in place: returned by value, the lanes were stored one at a
// time and then copied out whole, and the wide load of that copy waited on
// the narrow stores — on serve-mutate, where an insert scans a short window,
// that stall made the projection the hottest line of skycube's insertAt.
func (k *Kernel) Project(a []float64, p *Lanes) bool {
	*p = Lanes{}
	if !k.FitsLanes() {
		return false
	}
	for i, d := range k.sub {
		p[i] = a[d]
	}
	return true
}

// le is a ≤ b as a 0/1 byte: the compiler emits one SETcc, no jump.
func le(a, b float64) uint8 {
	if a <= b {
		return 1
	}
	return 0
}

// WeakLanes reports a ⪯ b over two projections of one subspace without a
// branch: each lane of `a0<=b0 && a1<=b1 && …` is a coin flip on
// anti-correlated data, four SETcc ANDed have nothing to mispredict. A NaN
// lane is never ≤ (the kernel's loops read it as a tie instead); ±Inf and −0
// compare as ≤ does.
func WeakLanes(a, b *Lanes) bool {
	return le(a[0], b[0])&le(a[1], b[1])&le(a[2], b[2])&le(a[3], b[3]) != 0
}

// FlatPoints is a coordinate arena of fixed-size slabs: point i occupies
// stride consecutive floats of slab i/slabPoints. Storing points
// contiguously replaces one heap object (and pointer chase) per point with
// an offset computation, keeping dominance scans cache-friendly; fixed
// slabs mean growth allocates one more slab and never copies, so a slice
// returned by At aliases the live arena for good, and a holder of a few
// such slices keeps only their slabs reachable.
//
// Slots are write-once: a slot's values must be treated as immutable once
// any reader has taken its At slice.
type FlatPoints struct {
	slabs  [][]float64 // slabPoints*stride floats each
	stride int
	n      int // point slots in use: 1 + the highest index Set
}

const (
	slabShift  = 12
	slabPoints = 1 << slabShift
)

// NewFlatPoints creates an arena for points of the given dimensionality.
func NewFlatPoints(stride int) *FlatPoints {
	if stride <= 0 {
		panic("preference: FlatPoints stride must be positive")
	}
	return &FlatPoints{stride: stride}
}

// Len returns the number of point slots currently backed by the arena.
func (f *FlatPoints) Len() int { return f.n }

// At returns the coordinates of point i < Len() as a capacity-clamped
// subslice of its slab. It never allocates.
func (f *FlatPoints) At(i int) []float64 {
	off := (i & (slabPoints - 1)) * f.stride
	return f.slabs[i>>slabShift][off : off+f.stride : off+f.stride]
}

// Set copies vals into slot i, adding slabs as needed (slots never set read
// as zeros). len(vals) must equal the stride.
func (f *FlatPoints) Set(i int, vals []float64) {
	if len(vals) != f.stride {
		panic("preference: FlatPoints.Set dimensionality mismatch")
	}
	for i>>slabShift >= len(f.slabs) {
		f.slabs = append(f.slabs, make([]float64, slabPoints*f.stride))
	}
	if i >= f.n {
		f.n = i + 1
	}
	copy(f.At(i), vals)
}
