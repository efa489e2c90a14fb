package preference

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSubspaceNormalizes(t *testing.T) {
	s := NewSubspace(3, 1, 2, 1, 3)
	want := []int{1, 2, 3}
	if len(s) != len(want) {
		t.Fatalf("got %v want %v", s, want)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("got %v want %v", s, want)
		}
	}
}

func TestNewSubspaceEmpty(t *testing.T) {
	if s := NewSubspace(); len(s) != 0 {
		t.Fatalf("empty subspace got %v", s)
	}
}

func TestContains(t *testing.T) {
	s := NewSubspace(0, 2, 5)
	for _, d := range []int{0, 2, 5} {
		if !s.Contains(d) {
			t.Errorf("Contains(%d) = false", d)
		}
	}
	for _, d := range []int{1, 3, 4, 6, -1} {
		if s.Contains(d) {
			t.Errorf("Contains(%d) = true", d)
		}
	}
}

func TestIsSubsetOf(t *testing.T) {
	cases := []struct {
		a, b Subspace
		want bool
	}{
		{NewSubspace(1), NewSubspace(1, 2), true},
		{NewSubspace(1, 2), NewSubspace(1, 2), true},
		{NewSubspace(), NewSubspace(1), true},
		{NewSubspace(1, 3), NewSubspace(1, 2), false},
		{NewSubspace(1, 2, 3), NewSubspace(1, 2), false},
		{NewSubspace(0, 2), NewSubspace(0, 1, 2, 3), true},
	}
	for _, c := range cases {
		if got := c.a.IsSubsetOf(c.b); got != c.want {
			t.Errorf("%v ⊆ %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualAndUnion(t *testing.T) {
	a := NewSubspace(1, 2)
	b := NewSubspace(2, 1)
	if !a.Equal(b) {
		t.Errorf("%v != %v", a, b)
	}
	if a.Equal(NewSubspace(1)) || a.Equal(NewSubspace(1, 3)) {
		t.Errorf("unexpected equality")
	}
}

func TestKey(t *testing.T) {
	if k := NewSubspace(2, 0).Key(); k != "d0,d2" {
		t.Errorf("key = %q", k)
	}
	if k := NewSubspace().Key(); k != "" {
		t.Errorf("empty key = %q", k)
	}
}

func TestMaskRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		var dims []int
		for d := 0; d < 12; d++ {
			if rng.Intn(2) == 1 {
				dims = append(dims, d)
			}
		}
		s := NewSubspace(dims...)
		back := SubspaceFromMask(s.Mask())
		if !s.Equal(back) {
			t.Fatalf("roundtrip %v -> %v", s, back)
		}
	}
}

func TestMaskPanicsOnLargeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dim ≥ 64")
		}
	}()
	NewSubspace(64).Mask()
}

func TestDominatesExamples(t *testing.T) {
	// Example 3 of the paper: h1 dominates h2; h1 and h3 incomparable.
	h1 := []float64{200, 5, 0.5, 20}
	h2 := []float64{350, 5, 0.5, 20}
	h3 := []float64{89, 2, 3, 0}
	// Ratings use "smaller is better" here, so equal values on all but
	// price make h1 dominate h2.
	full := NewSubspace(0, 1, 2, 3)
	if !DominatesIn(full, h1, h2) {
		t.Error("h1 should dominate h2")
	}
	if DominatesIn(full, h2, h1) {
		t.Error("h2 must not dominate h1")
	}
	if DominatesIn(full, h1, h3) || DominatesIn(full, h3, h1) {
		t.Error("h1 and h3 must be incomparable")
	}
}

func TestSubspaceDominanceExample(t *testing.T) {
	// Example 4: in subspace {price, wifi}, h3 dominates h1 and h2.
	h1 := []float64{200, 5, 0.5, 20}
	h2 := []float64{350, 5, 0.5, 20}
	h3 := []float64{89, 2, 3, 0}
	v := NewSubspace(0, 3)
	if !DominatesIn(v, h3, h1) || !DominatesIn(v, h3, h2) {
		t.Error("h3 should dominate h1 and h2 in {price, wifi}")
	}
}

func TestDominatesRequiresStrict(t *testing.T) {
	a := []float64{1, 2, 3}
	if DominatesIn(NewSubspace(0, 1, 2), a, a) {
		t.Error("a point must not dominate itself")
	}
	if DominatesIn(NewSubspace(0, 1), a, a) {
		t.Error("equal points must not dominate in any subspace")
	}
	if !WeakDominatesIn(NewSubspace(0, 1, 2), a, a) {
		t.Error("a point weakly dominates itself")
	}
}

func randPoint(rng *rand.Rand, d int) []float64 {
	p := make([]float64, d)
	for i := range p {
		p[i] = float64(rng.Intn(5)) // small domain to generate ties
	}
	return p
}

func TestDominanceIsIrreflexiveAndAsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := NewSubspace(0, 1, 2, 3)
	for i := 0; i < 500; i++ {
		a, b := randPoint(rng, 4), randPoint(rng, 4)
		if DominatesIn(v, a, a) {
			t.Fatalf("irreflexivity violated for %v", a)
		}
		if DominatesIn(v, a, b) && DominatesIn(v, b, a) {
			t.Fatalf("asymmetry violated for %v, %v", a, b)
		}
	}
}

func TestDominanceIsTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := NewSubspace(0, 1, 2)
	for i := 0; i < 2000; i++ {
		a, b, c := randPoint(rng, 3), randPoint(rng, 3), randPoint(rng, 3)
		if DominatesIn(v, a, b) && DominatesIn(v, b, c) && !DominatesIn(v, a, c) {
			t.Fatalf("transitivity violated: %v ≺ %v ≺ %v", a, b, c)
		}
	}
}

func TestDominanceInSubspaceImpliedBySuperspace(t *testing.T) {
	// Dominance in V implies dominance-or-equality in every U ⊆ V on the
	// weak side: a ≺_V b ⇒ a ⪯_U b.
	rng := rand.New(rand.NewSource(4))
	v := NewSubspace(0, 1, 2, 3)
	u := NewSubspace(1, 3)
	for i := 0; i < 1000; i++ {
		a, b := randPoint(rng, 4), randPoint(rng, 4)
		if DominatesIn(v, a, b) && !WeakDominatesIn(u, a, b) {
			t.Fatalf("%v ≺_V %v but not ⪯_U", a, b)
		}
	}
}

func TestCompareInConsistency(t *testing.T) {
	v := NewSubspace(0, 1)
	err := quick.Check(func(a0, a1, b0, b1 uint8) bool {
		a := []float64{float64(a0 % 8), float64(a1 % 8)}
		b := []float64{float64(b0 % 8), float64(b1 % 8)}
		c := CompareIn(v, a, b)
		switch {
		case DominatesIn(v, a, b):
			return c == -1
		case DominatesIn(v, b, a):
			return c == 1
		default:
			return c == 0
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompareInAntisymmetry(t *testing.T) {
	v := NewSubspace(0, 1, 2)
	err := quick.Check(func(a0, a1, a2, b0, b1, b2 uint8) bool {
		a := []float64{float64(a0 % 4), float64(a1 % 4), float64(a2 % 4)}
		b := []float64{float64(b0 % 4), float64(b1 % 4), float64(b2 % 4)}
		return CompareIn(v, a, b) == -CompareIn(v, b, a)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestWeakDominanceIsReflexiveTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := NewSubspace(0, 1, 2)
	for i := 0; i < 1000; i++ {
		a, b, c := randPoint(rng, 3), randPoint(rng, 3), randPoint(rng, 3)
		if !WeakDominatesIn(v, a, a) {
			t.Fatal("weak dominance must be reflexive")
		}
		if WeakDominatesIn(v, a, b) && WeakDominatesIn(v, b, c) && !WeakDominatesIn(v, a, c) {
			t.Fatalf("weak transitivity violated")
		}
	}
}
