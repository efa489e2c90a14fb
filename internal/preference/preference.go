// Package preference implements the paper's preference model (§2.1):
// full-space and subspace dominance over d-dimensional points, with smaller
// values preferred on every dimension.
package preference

import (
	"fmt"
	"sort"
	"strings"
)

// Subspace is a set of dimension indices V ⊆ D, kept sorted and de-duplicated.
// The empty subspace is invalid for dominance tests.
type Subspace []int

// NewSubspace returns a normalized (sorted, de-duplicated) subspace.
func NewSubspace(dims ...int) Subspace {
	s := append(Subspace(nil), dims...)
	sort.Ints(s)
	out := s[:0]
	for i, d := range s {
		if i == 0 || d != s[i-1] {
			out = append(out, d)
		}
	}
	return out
}

// Contains reports whether dimension d is in the subspace.
func (s Subspace) Contains(d int) bool {
	i := sort.SearchInts(s, d)
	return i < len(s) && s[i] == d
}

// IsSubsetOf reports whether s ⊆ t.
func (s Subspace) IsSubsetOf(t Subspace) bool {
	if len(s) > len(t) {
		return false
	}
	i := 0
	for _, d := range s {
		for i < len(t) && t[i] < d {
			i++
		}
		if i >= len(t) || t[i] != d {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same dimensions.
func (s Subspace) Equal(t Subspace) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string form usable as a map key, e.g. "d1,d3".
func (s Subspace) Key() string {
	var b strings.Builder
	for i, d := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "d%d", d)
	}
	return b.String()
}

// Mask returns the subspace as a bitmask; panics if any dimension ≥ 64.
func (s Subspace) Mask() uint64 {
	var m uint64
	for _, d := range s {
		if d >= 64 {
			panic("preference: subspace dimension out of bitmask range")
		}
		m |= 1 << uint(d)
	}
	return m
}

// SubspaceFromMask reconstructs a subspace from a bitmask.
func SubspaceFromMask(m uint64) Subspace {
	var s Subspace
	for d := 0; d < 64; d++ {
		if m&(1<<uint(d)) != 0 {
			s = append(s, d)
		}
	}
	return s
}

// DominatesIn implements subspace dominance (Definition 2): a ≺_V b iff
// a[k] ≤ b[k] for all k ∈ V and a[l] < b[l] for some l ∈ V. Smaller is
// better. Full-space dominance (Definition 1) is the case V = D.
func DominatesIn(v Subspace, a, b []float64) bool {
	strictly := false
	for _, k := range v {
		if a[k] > b[k] {
			return false
		}
		if a[k] < b[k] {
			strictly = true
		}
	}
	return strictly
}

// WeakDominatesIn reports a ⪯_V b: a[k] ≤ b[k] on every dimension of V
// (equality everywhere allowed). Used for region dominance (Definition 8).
func WeakDominatesIn(v Subspace, a, b []float64) bool {
	for _, k := range v {
		if a[k] > b[k] {
			return false
		}
	}
	return true
}
