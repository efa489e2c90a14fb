package skycube

import (
	"math/rand"
	"testing"

	"caqe/internal/preference"
)

// TestSharedSkylineInsertZeroAllocs pins the steady state of the shared
// skyline at zero heap allocations per insert: once the arena, the
// per-payload bitmask arrays and the windows have grown to working size,
// inserting (and removing) further points must not allocate. Window entries
// are values inside the window's backing array — truncation, compaction and
// reset all keep its capacity — so there is no per-entry object to recycle
// and only growth past the high-water mark allocates. It runs on a plan with
// a 5-dimension node, which compares through the kernel (p's lanes, handed
// to evictMasked by address, must not escape), and on one of 67 nodes, whose
// last three have no mask bit and search their windows for members.
func TestSharedSkylineInsertZeroAllocs(t *testing.T) {
	plans := []struct {
		name  string
		d     int
		prefs []preference.Subspace
	}{
		{"3d/masks", 3, []preference.Subspace{
			preference.NewSubspace(0, 1),
			preference.NewSubspace(1, 2),
			preference.NewSubspace(0, 1, 2),
		}},
		{"5d/masks", 5, []preference.Subspace{
			preference.NewSubspace(0, 1),
			preference.NewSubspace(1, 2, 3),
			preference.NewSubspace(0, 1, 2, 3, 4),
		}},
		{"7d/past-64", 7, allSubspaces(7)[:60]},
	}
	for _, plan := range plans {
		t.Run(plan.name, func(t *testing.T) {
			c, err := BuildCuboid(plan.prefs)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSharedSkyline(c, nil)
			var all QSet
			for qi := range plan.prefs {
				all = all.Add(qi)
			}

			rng := rand.New(rand.NewSource(7))
			point := func() []float64 {
				p := make([]float64, plan.d)
				for k := range p {
					p[k] = rng.Float64()
				}
				return p
			}

			// Populate a working set, then warm the steady-state cycle on
			// one reused payload slot until every internal buffer has
			// reached its high-water capacity.
			const base = 256
			for p := 0; p < base; p++ {
				s.Insert(p, point(), all)
			}
			vals := point()
			var removed []Removed
			for i := 0; i < 128; i++ {
				s.Insert(base, point(), all)
				removed = s.Remove(base, removed[:0])
			}

			allocs := testing.AllocsPerRun(64, func() {
				s.Insert(base, vals, all)
				removed = s.Remove(base, removed[:0])
			})
			if allocs != 0 {
				t.Fatalf("steady-state Insert: %v allocs/op, want 0", allocs)
			}
		})
	}
}
