package skycube

import (
	"math"
	"testing"
	"unsafe"

	"caqe/internal/preference"
)

// TestSharedEntryIsOneCacheLine pins the window entry at exactly 64 bytes: a
// field added later must not silently spill a visit over two cache lines.
func TestSharedEntryIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(sharedEntry{}); got != 64 {
		t.Fatalf("sharedEntry is %d bytes, want 64", got)
	}
}

// TestFindSurvivesWindowShifts: window entries are values that move whenever
// the window shifts, so every lookup after a mutation must land on the entry's
// new slot. Each step below relocates entries in a different way; after each,
// checkMembership compares find, the masks, IsCandidate and Candidates for
// every payload with a linear pass over the windows.
func TestFindSurvivesWindowShifts(t *testing.T) {
	c, err := BuildCuboid([]preference.Subspace{preference.NewSubspace(0, 1), preference.NewSubspace(0, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharedSkyline(c, nil)
	both := QSet(0).Add(0).Add(1)
	sn := s.prefSN[0] // node {0,1}, serving both queries
	live := func(p int) *sharedEntry {
		t.Helper()
		e := s.find(sn, p)
		if e == nil || int(e.payload) != p || e.alive == 0 {
			t.Fatalf("find(%d) = %+v, want its live entry", p, e)
		}
		return e
	}

	// A long window: n mutually incomparable points (x up, y down) with
	// distinct sums, inserted in descending sum order so every insert lands
	// at the front and shifts all earlier entries.
	const n = 64
	y := func(x float64) float64 { return (n - x) * (n - x) }
	for p := 0; p < n; p++ {
		s.Insert(p, []float64{float64(p), y(float64(p)), 0}, both)
	}
	if len(sn.window) != n {
		t.Fatalf("window holds %d entries, want %d", len(sn.window), n)
	}
	checkMembership(t, s, n, "fill")

	// An insert into the middle: everything behind it moves up one slot.
	mid := n
	s.Insert(mid, []float64{31.5, (y(31) + y(32)) / 2, 0}, both)
	if e := live(mid); e == &sn.window[0] || e == &sn.window[len(sn.window)-1] {
		t.Fatal("the middle insert landed at an end of the window")
	}
	live(0)
	live(n - 1)
	checkMembership(t, s, n+1, "insert into the middle")

	// An insert that evicts: it dominates payloads 10..20 at this node, so the
	// suffix scan compacts the survivors down over them before inserting.
	killer := n + 1
	s.Insert(killer, []float64{10, y(20), 0}, both)
	for p := 10; p <= 20; p++ {
		if s.find(sn, p) != nil {
			t.Fatalf("payload %d survived its dominator", p)
		}
	}
	live(killer)
	live(9)
	live(21)
	checkMembership(t, s, n+2, "evicting insert")

	// Kills mark entries dead in place; the batch compaction then moves every
	// survivor. The loop runs until the compaction has happened.
	before := len(sn.window)
	p := 21
	for ; len(sn.window) == before; p++ {
		if p >= n {
			t.Fatal("compaction never triggered")
		}
		s.KillForQueries(p, both)
		checkMembership(t, s, n+2, "kill")
	}
	if sn.dead != 0 || len(sn.window) != before-(p-21) {
		t.Fatalf("after compaction: %d entries, %d dead, killed %d of %d", len(sn.window), sn.dead, p-21, before)
	}
	live(killer)
	live(0)
	live(n - 1)

	// RetireQuery scrubs a shared node entry by entry (query 0 leaves, the
	// node keeps serving query 1) and resets a node left serving nobody.
	s.RetireQuery(0)
	if e := live(0); e.alive != QSet(0).Add(1) || e.lineage != QSet(0).Add(1) {
		t.Fatalf("after retiring query 0 the entry still carries it: %+v", e)
	}
	checkMembership(t, s, n+2, "retire 0")
	s.RetireQuery(1)
	if len(sn.window) != 0 || s.find(sn, 0) != nil {
		t.Fatalf("retiring the last query left %d entries", len(sn.window))
	}
	checkMembership(t, s, n+2, "retire 1")
}

// TestPayloadRange: a window entry stores its payload as an int32, so Insert
// refuses what would wrap, and the lookups answer "not here" for a negative
// payload instead of indexing the arena with it.
func TestPayloadRange(t *testing.T) {
	c, err := BuildCuboid([]preference.Subspace{preference.NewSubspace(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharedSkyline(c, nil)
	q := QSet(0).Add(0)
	lookups := func(step string) {
		t.Helper()
		if v := s.PointVals(-1); v != nil {
			t.Fatalf("%s: PointVals(-1) = %v", step, v)
		}
		if s.IsCandidate(-1, 0) || s.find(s.prefSN[0], -1) != nil || s.InsertForQuery(-1, 0) {
			t.Fatalf("%s: a negative payload was found", step)
		}
	}
	lookups("empty")
	s.Insert(0, []float64{1, 2}, q)
	lookups("one point")

	tooBig := math.MaxInt32
	tooBig++ // negative where int is 32 bits: refused either way
	for _, payload := range []int{-1, math.MinInt32, tooBig} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Insert(%d) did not panic", payload)
				}
			}()
			s.Insert(payload, []float64{0, 0}, q)
		}()
	}
	if got := s.Candidates(0); !sameInts(got, []int{0}) {
		t.Fatalf("a refused Insert changed the candidates: %v", got)
	}
}
