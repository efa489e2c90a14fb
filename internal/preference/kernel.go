package preference

// Kernel is a dominance comparator bound to one subspace, with the dimension
// list resolved once at construction instead of re-walked per comparison.
// The d = 1..4 cases are monomorphized into straight-line code over scalar
// dimension indices (the common output dimensionalities of the paper's
// workloads); larger subspaces fall back to the generic loop. A Kernel is a
// small value type: methods never allocate, so hot loops can hold one by
// value and run allocation-free.
//
// All methods agree exactly with the generic DominatesIn / WeakDominatesIn /
// CompareIn functions on the same subspace (see TestKernelAgreesWithGeneric).
type Kernel struct {
	d              int // 1..4 = specialized; 0 = generic (len(sub) == 0 or ≥ 5)
	k0, k1, k2, k3 int
	sub            Subspace
}

// NewKernel builds the comparator for subspace v. The subspace is captured
// by reference; callers must not mutate it afterwards.
func NewKernel(v Subspace) Kernel {
	k := Kernel{sub: v}
	switch len(v) {
	case 1:
		k.d, k.k0 = 1, v[0]
	case 2:
		k.d, k.k0, k.k1 = 2, v[0], v[1]
	case 3:
		k.d, k.k0, k.k1, k.k2 = 3, v[0], v[1], v[2]
	case 4:
		k.d, k.k0, k.k1, k.k2, k.k3 = 4, v[0], v[1], v[2], v[3]
	}
	return k
}

// Sub returns the subspace the kernel compares in.
func (k *Kernel) Sub() Subspace { return k.sub }

// Dominates reports a ≺_V b (strict subspace dominance, Definition 2).
func (k *Kernel) Dominates(a, b []float64) bool {
	switch k.d {
	case 1:
		return a[k.k0] < b[k.k0]
	case 2:
		a0, b0, a1, b1 := a[k.k0], b[k.k0], a[k.k1], b[k.k1]
		return a0 <= b0 && a1 <= b1 && (a0 < b0 || a1 < b1)
	case 3:
		a0, b0, a1, b1, a2, b2 := a[k.k0], b[k.k0], a[k.k1], b[k.k1], a[k.k2], b[k.k2]
		return a0 <= b0 && a1 <= b1 && a2 <= b2 && (a0 < b0 || a1 < b1 || a2 < b2)
	case 4:
		a0, b0, a1, b1 := a[k.k0], b[k.k0], a[k.k1], b[k.k1]
		a2, b2, a3, b3 := a[k.k2], b[k.k2], a[k.k3], b[k.k3]
		return a0 <= b0 && a1 <= b1 && a2 <= b2 && a3 <= b3 &&
			(a0 < b0 || a1 < b1 || a2 < b2 || a3 < b3)
	}
	return DominatesIn(k.sub, a, b)
}

// WeakDominates reports a ⪯_V b (a[k] ≤ b[k] on every dimension of V).
func (k *Kernel) WeakDominates(a, b []float64) bool {
	switch k.d {
	case 1:
		return a[k.k0] <= b[k.k0]
	case 2:
		return a[k.k0] <= b[k.k0] && a[k.k1] <= b[k.k1]
	case 3:
		return a[k.k0] <= b[k.k0] && a[k.k1] <= b[k.k1] && a[k.k2] <= b[k.k2]
	case 4:
		return a[k.k0] <= b[k.k0] && a[k.k1] <= b[k.k1] &&
			a[k.k2] <= b[k.k2] && a[k.k3] <= b[k.k3]
	}
	return WeakDominatesIn(k.sub, a, b)
}

// Relate reports (a ⪯_V b, b ⪯_V a) in one pass. The four combinations
// classify the pair completely: (true, true) = equal in V, (true, false) =
// a ≺_V b, (false, true) = b ≺_V a, (false, false) = incomparable.
func (k *Kernel) Relate(a, b []float64) (aWeakB, bWeakA bool) {
	switch k.d {
	case 1:
		a0, b0 := a[k.k0], b[k.k0]
		return a0 <= b0, b0 <= a0
	case 2:
		a0, b0, a1, b1 := a[k.k0], b[k.k0], a[k.k1], b[k.k1]
		return a0 <= b0 && a1 <= b1, b0 <= a0 && b1 <= a1
	case 3:
		a0, b0, a1, b1, a2, b2 := a[k.k0], b[k.k0], a[k.k1], b[k.k1], a[k.k2], b[k.k2]
		return a0 <= b0 && a1 <= b1 && a2 <= b2, b0 <= a0 && b1 <= a1 && b2 <= a2
	case 4:
		a0, b0, a1, b1 := a[k.k0], b[k.k0], a[k.k1], b[k.k1]
		a2, b2, a3, b3 := a[k.k2], b[k.k2], a[k.k3], b[k.k3]
		return a0 <= b0 && a1 <= b1 && a2 <= b2 && a3 <= b3,
			b0 <= a0 && b1 <= a1 && b2 <= a2 && b3 <= a3
	}
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
// score used by the sum-sorted window algorithms.
func (k *Kernel) Sum(a []float64) float64 {
	switch k.d {
	case 1:
		return a[k.k0]
	case 2:
		return a[k.k0] + a[k.k1]
	case 3:
		return a[k.k0] + a[k.k1] + a[k.k2]
	case 4:
		return a[k.k0] + a[k.k1] + a[k.k2] + a[k.k3]
	}
	s := 0.0
	for _, d := range k.sub {
		s += a[d]
	}
	return s
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

// Stride returns the per-point coordinate count.
func (f *FlatPoints) Stride() int { return f.stride }

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
