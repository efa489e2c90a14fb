package skycube

import (
	"math/rand"
	"testing"

	"caqe/internal/preference"
)

// TestSharedSkylineInsertZeroAllocs pins the steady state of the shared
// skyline at zero heap allocations per insert: once the arena, the
// per-payload bitmask arrays and the windows have grown to working size,
// inserting (and killing) further points must not allocate. Window entries
// are values inside the window's backing array — truncation, compaction and
// reset all keep its capacity — so there is no per-entry object to recycle
// and only growth past the high-water mark allocates. It runs in both scan
// forms of insertAt (with the masks, and with them switched off so that the
// childProtects loops run) and on a plan with a 5-dimension node, which
// compares through the kernel: p's lanes, handed to evictMasked by address,
// must not escape.
func TestSharedSkylineInsertZeroAllocs(t *testing.T) {
	plans := []struct {
		name  string
		d     int
		prefs []preference.Subspace
	}{
		{"3d", 3, []preference.Subspace{
			preference.NewSubspace(0, 1),
			preference.NewSubspace(1, 2),
			preference.NewSubspace(0, 1, 2),
		}},
		{"5d", 5, []preference.Subspace{
			preference.NewSubspace(0, 1),
			preference.NewSubspace(1, 2, 3),
			preference.NewSubspace(0, 1, 2, 3, 4),
		}},
	}
	for _, plan := range plans {
		for _, masks := range []bool{true, false} {
			name := plan.name + "/masks"
			if !masks {
				name = plan.name + "/no-masks"
			}
			t.Run(name, func(t *testing.T) {
				c, err := BuildCuboid(plan.prefs)
				if err != nil {
					t.Fatal(err)
				}
				s := NewSharedSkyline(c, nil)
				if !masks {
					s.useMasks = false
				}
				all := QSet(0).Add(0).Add(1).Add(2)

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
				for i := 0; i < 128; i++ {
					s.Insert(base, point(), all)
					s.KillForQueries(base, all)
				}

				allocs := testing.AllocsPerRun(64, func() {
					s.Insert(base, vals, all)
					s.KillForQueries(base, all)
				})
				if allocs != 0 {
					t.Fatalf("steady-state Insert: %v allocs/op, want 0", allocs)
				}
			})
		}
	}
}
