package preference

import (
	"math"
	"math/rand"
	"testing"
)

// randomSubspace draws a sorted duplicate-free subspace of the given size
// over dims dimensions.
func randomSubspace(rng *rand.Rand, size, dims int) Subspace {
	perm := rng.Perm(dims)[:size]
	return NewSubspace(perm...)
}

// randomPoint draws coordinates from a small discrete domain so that ties
// and exact duplicates occur constantly — the regime where strict vs weak
// dominance and the clean-flag semantics differ.
func randomPoint(rng *rand.Rand, dims int) []float64 {
	p := make([]float64, dims)
	for i := range p {
		p[i] = float64(rng.Intn(4))
	}
	return p
}

// TestKernelAgreesWithGeneric checks every Kernel method, and the free
// functions that share its loops, against the definitions written out here
// per dimension — not against code they call — on randomized tied and
// duplicated points, for every subspace size from 1 through 6.
func TestKernelAgreesWithGeneric(t *testing.T) {
	const dims = 7
	rng := rand.New(rand.NewSource(99))
	for size := 1; size <= 6; size++ {
		for trial := 0; trial < 400; trial++ {
			v := randomSubspace(rng, size, dims)
			k := NewKernel(v)
			a := randomPoint(rng, dims)
			b := randomPoint(rng, dims)
			if trial%10 == 0 {
				copy(b, a) // force exact duplicates regularly
			}

			// Definition 2, dimension by dimension.
			le, ge, lt, gt := 0, 0, 0, 0
			wantSum := 0.0
			for _, d := range v {
				if a[d] <= b[d] {
					le++
				}
				if a[d] >= b[d] {
					ge++
				}
				if a[d] < b[d] {
					lt++
				}
				if a[d] > b[d] {
					gt++
				}
				wantSum += a[d]
			}
			aWeakB, bWeakA := le == size, ge == size
			aDomB, bDomA := aWeakB && lt > 0, bWeakA && gt > 0
			wantCmp := 0
			if aDomB {
				wantCmp = -1
			} else if bDomA {
				wantCmp = 1
			}

			if got := k.Dominates(a, b); got != aDomB {
				t.Fatalf("size %d: Dominates(%v,%v) in %v = %v, want %v", size, a, b, v, got, aDomB)
			}
			if got := k.Dominates(b, a); got != bDomA {
				t.Fatalf("size %d: Dominates(%v,%v) in %v = %v, want %v", size, b, a, v, got, bDomA)
			}
			if got := k.WeakDominates(a, b); got != aWeakB {
				t.Fatalf("size %d: WeakDominates(%v,%v) in %v = %v, want %v", size, a, b, v, got, aWeakB)
			}
			if got := k.Compare(a, b); got != wantCmp {
				t.Fatalf("size %d: Compare(%v,%v) in %v = %v, want %v", size, a, b, v, got, wantCmp)
			}
			if g1, g2 := k.Relate(a, b); g1 != aWeakB || g2 != bWeakA {
				t.Fatalf("size %d: Relate(%v,%v) in %v = (%v,%v), want (%v,%v)",
					size, a, b, v, g1, g2, aWeakB, bWeakA)
			}
			if got := k.Sum(a); got != wantSum {
				t.Fatalf("size %d: Sum(%v) in %v = %v, want %v", size, a, v, got, wantSum)
			}
			if DominatesIn(v, a, b) != aDomB || WeakDominatesIn(v, b, a) != bWeakA || k.Compare(b, a) != -wantCmp {
				t.Fatalf("size %d: free functions or the swapped Compare disagree with the definition on (%v,%v) in %v", size, a, b, v)
			}
		}
	}
}

// TestWeakLanesMatchesKernel checks the branch-free lane comparator, in both
// directions, on Project's lanes for every subspace size 1–4 of a 6-d space
// (sizes 5 and 6 must not fit). It must equal the short-circuit conjunction
// of the same four ≤ on every input — that is the form it replaced, NaN
// included: a NaN lane is never ≤, so the pair is incomparable — and
// Kernel.Relate on every NaN-free input (Relate reads a NaN dimension as a
// tie, which is why the two are not compared there).
func TestWeakLanesMatchesKernel(t *testing.T) {
	const dims = 6
	specials := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(22))
	coord := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return float64(rng.Intn(3)) - 1 // ties and negatives
		default:
			return rng.NormFloat64()
		}
	}
	shortCircuit := func(a, b *Lanes) bool {
		return a[0] <= b[0] && a[1] <= b[1] && a[2] <= b[2] && a[3] <= b[3]
	}
	for size := 1; size <= dims; size++ {
		for trial := 0; trial < 5000; trial++ {
			kern := NewKernel(randomSubspace(rng, size, dims))
			a, b := make([]float64, dims), make([]float64, dims)
			hasNaN := false
			for k := range a {
				a[k], b[k] = coord(), coord()
				if rng.Intn(3) == 0 {
					b[k] = a[k]
				}
				hasNaN = hasNaN || kern.Sub().Contains(k) && (math.IsNaN(a[k]) || math.IsNaN(b[k]))
			}
			la, lb := Lanes{7, 7, 7, 7}, Lanes{-7, -7, -7, -7} // stale lanes Project must overwrite
			okA, okB := kern.Project(a, &la), kern.Project(b, &lb)
			if fits := size <= 4; okA != fits || okB != fits {
				t.Fatalf("size %d: Project ok = (%v, %v), want %v", size, okA, okB, fits)
			}
			if !okA {
				if la != (Lanes{}) || lb != (Lanes{}) {
					t.Fatalf("size %d: Project left lanes %v, %v it does not fit", size, la, lb)
				}
				continue
			}
			for i, d := range kern.Sub() {
				if !sameFloat(la[i], a[d]) || !sameFloat(lb[i], b[d]) {
					t.Fatalf("size %d: lane %d of %v is %v, want dimension %d", size, i, kern.Sub(), la[i], d)
				}
			}
			for i := size; i < len(la); i++ {
				if la[i] != 0 || lb[i] != 0 || math.Signbit(la[i]) || math.Signbit(lb[i]) {
					t.Fatalf("size %d: padding lane %d is (%v, %v), want +0", size, i, la[i], lb[i])
				}
			}
			aWeakB, bWeakA := WeakLanes(&la, &lb), WeakLanes(&lb, &la)
			if aWeakB != shortCircuit(&la, &lb) || bWeakA != shortCircuit(&lb, &la) {
				t.Fatalf("size %d a=%v b=%v: WeakLanes = (%v, %v), short-circuit ≤ = (%v, %v)",
					size, la, lb, aWeakB, bWeakA, shortCircuit(&la, &lb), shortCircuit(&lb, &la))
			}
			if hasNaN {
				continue
			}
			if wantAB, wantBA := kern.Relate(a, b); aWeakB != wantAB || bWeakA != wantBA {
				t.Fatalf("size %d a=%v b=%v in %v: WeakLanes = (%v, %v), Relate = (%v, %v)",
					size, a, b, kern.Sub(), aWeakB, bWeakA, wantAB, wantBA)
			}
		}
	}
}

// sameFloat reports bit equality, so a NaN lane matches the NaN it copies.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestKernelZeroAllocs pins the kernel at zero heap allocations per
// comparison.
func TestKernelZeroAllocs(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 1, 3, 0, 4}
	for _, size := range []int{2, 3, 4} {
		v := NewSubspace([]int{0, 1, 2, 3}[:size]...)
		k := NewKernel(v)
		sink := false
		var sinkF float64
		allocs := testing.AllocsPerRun(100, func() {
			sink = k.Dominates(a, b) || k.WeakDominates(b, a)
			w1, w2 := k.Relate(a, b)
			sink = sink || w1 || w2 || k.Compare(a, b) != 0
			sinkF += k.Sum(a)
			var la, lb Lanes
			sink = sink || k.Project(a, &la) && k.Project(b, &lb) && WeakLanes(&la, &lb)
		})
		if allocs != 0 {
			t.Fatalf("d=%d kernel: %v allocs/op, want 0", size, allocs)
		}
		_ = sink
	}
}

// TestFlatPointsAt pins At at zero allocations and growth at zero copies:
// a slice taken before the arena grew past a slab boundary still is the
// arena's storage afterwards.
func TestFlatPointsAt(t *testing.T) {
	f := NewFlatPoints(3)
	f.Set(0, []float64{1, 2, 3})
	first := f.At(0)
	allocs := testing.AllocsPerRun(100, func() { _ = f.At(0) })
	if allocs != 0 {
		t.Fatalf("FlatPoints.At: %v allocs/op, want 0", allocs)
	}
	last := 2*slabPoints + 5
	for i := 1; i < last; i++ {
		f.Set(i, []float64{float64(i), 0, 0})
	}
	if &first[0] != &f.At(0)[0] {
		t.Fatal("growth moved slot 0: a slice taken earlier no longer aliases the arena")
	}
	if first[0] != 1 || first[1] != 2 || first[2] != 3 {
		t.Fatalf("slice taken before growth changed values: %v", first)
	}
	for _, i := range []int{slabPoints - 1, slabPoints, slabPoints + 1, last - 1} {
		if got := f.At(i); len(got) != 3 || cap(got) != 3 || got[0] != float64(i) {
			t.Fatalf("slot %d across the slab boundary: %v", i, got)
		}
	}
	if f.Len() != last {
		t.Fatalf("Len = %d, want %d", f.Len(), last)
	}
	// Set past Len: the skipped slots read as zeros.
	f.Set(last+slabPoints, []float64{7, 8, 9})
	if f.Len() != last+slabPoints+1 {
		t.Fatalf("Len after sparse Set = %d", f.Len())
	}
	for _, i := range []int{last, last + 1, last + slabPoints - 1} {
		if got := f.At(i); got[0] != 0 || got[1] != 0 || got[2] != 0 {
			t.Fatalf("skipped slot %d not zero: %v", i, got)
		}
	}
	if got := f.At(last + slabPoints); got[0] != 7 || got[2] != 9 {
		t.Fatalf("sparse Set slot: %v", got)
	}
}
