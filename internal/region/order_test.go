package region

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestKeySorterMatchesStableSort holds KeySorter to a stable comparison
// sort by FloatKey over random floats — ties, ±0, ±Inf, subnormals and
// values that differ only in their low bytes — and FloatKey's order to the
// floats' own, with −0 just below +0; one sorter serves every trial, so its
// buffers are reused across lengths.
func TestKeySorterMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, 1 + 0x1p-52, -1}
	var sorter KeySorter
	for trial := range 300 {
		n := rng.Intn(300)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = specials[rng.Intn(len(specials))]
			case 1:
				vals[i] = float64(rng.Intn(5) - 2) // ties
			default:
				vals[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(60)-30))
			}
		}
		type rec struct {
			v  float64
			id int32
		}
		want := make([]rec, n)
		keys, ids := make([]uint64, n), make([]int32, n)
		for i, v := range vals {
			want[i] = rec{v, int32(i)}
			keys[i], ids[i] = FloatKey(v), int32(i)
		}
		slices.SortStableFunc(want, func(a, b rec) int {
			if c := cmp.Compare(a.v, b.v); c != 0 {
				return c
			}
			switch sa, sb := math.Signbit(a.v), math.Signbit(b.v); {
			case sa && !sb:
				return -1 // −0 first
			case sb && !sa:
				return 1
			}
			return 0
		})
		sorter.Sort(keys, ids)
		for p := range want {
			if ids[p] != want[p].id || keys[p] != FloatKey(want[p].v) {
				t.Fatalf("trial %d position %d: id %d value %v, want id %d value %v", trial, p, ids[p], vals[ids[p]], want[p].id, want[p].v)
			}
		}
	}
}
