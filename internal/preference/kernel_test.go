package preference

import (
	"fmt"
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

// TestKernelAgreesWithGeneric cross-checks every kernel method against the
// generic subspace functions on randomized tied/duplicated points, for every
// subspace size from 1 (fully specialized) through 6 (generic fallback).
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

			if got, want := k.Dominates(a, b), DominatesIn(v, a, b); got != want {
				t.Fatalf("size %d: Dominates(%v,%v) in %v = %v, generic %v", size, a, b, v, got, want)
			}
			if got, want := k.WeakDominates(a, b), WeakDominatesIn(v, a, b); got != want {
				t.Fatalf("size %d: WeakDominates(%v,%v) in %v = %v, generic %v", size, a, b, v, got, want)
			}
			if got, want := k.Compare(a, b), CompareIn(v, a, b); got != want {
				t.Fatalf("size %d: Compare(%v,%v) in %v = %v, generic %v", size, a, b, v, got, want)
			}
			aWeakB, bWeakA := k.Relate(a, b)
			if aWeakB != WeakDominatesIn(v, a, b) || bWeakA != WeakDominatesIn(v, b, a) {
				t.Fatalf("size %d: Relate(%v,%v) in %v = (%v,%v), generic (%v,%v)",
					size, a, b, v, aWeakB, bWeakA, WeakDominatesIn(v, a, b), WeakDominatesIn(v, b, a))
			}
			wantSum := 0.0
			for _, d := range v {
				wantSum += a[d]
			}
			if got := k.Sum(a); got != wantSum {
				t.Fatalf("size %d: Sum(%v) in %v = %v, want %v", size, a, v, got, wantSum)
			}
		}
	}
}

// TestKernelZeroAllocs pins the specialized kernels at zero heap
// allocations per comparison.
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
		})
		if allocs != 0 {
			t.Fatalf("d=%d kernel: %v allocs/op, want 0", size, allocs)
		}
		_ = sink
	}
}

// BenchmarkKernelDominates measures the specialized dominance kernels
// against the generic loop at each supported dimensionality.
func BenchmarkKernelDominates(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 256
	for _, size := range []int{2, 3, 4} {
		v := NewSubspace([]int{0, 1, 2, 3}[:size]...)
		k := NewKernel(v)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = randomPoint(rng, 4)
		}
		b.Run(fmt.Sprintf("kernel-d%d", size), func(b *testing.B) {
			sink := false
			for i := 0; i < b.N; i++ {
				a, c := pts[i%n], pts[(i+7)%n]
				sink = sink != k.Dominates(a, c)
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("generic-d%d", size), func(b *testing.B) {
			sink := false
			for i := 0; i < b.N; i++ {
				a, c := pts[i%n], pts[(i+7)%n]
				sink = sink != DominatesIn(v, a, c)
			}
			_ = sink
		})
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
