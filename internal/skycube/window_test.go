package skycube

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"caqe/internal/metrics"
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
// every payload with a linear pass over the windows, and checks every
// block head.
func TestFindSurvivesWindowShifts(t *testing.T) {
	c, err := BuildCuboid([]preference.Subspace{preference.NewSubspace(0, 1), preference.NewSubspace(0, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	y := func(x float64) float64 { return (n - x) * (n - x) }
	s := NewSharedSkylineIn(c, nil, []float64{0, 0, 0}, []float64{n, y(0), 1})
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
	// distinct keys, spread over several blocks, so that inserts shift
	// entries within a block and split full ones.
	for p := 0; p < n; p++ {
		s.Insert(p, []float64{float64(p), y(float64(p)), 0}, both)
	}
	if sn.size != n || len(sn.blocks) < 2 {
		t.Fatalf("window holds %d entries in %d blocks, want %d in several", sn.size, len(sn.blocks), n)
	}
	checkMembership(t, s, n, "fill")

	// An insert into the middle: everything behind it moves up one slot.
	mid := n
	s.Insert(mid, []float64{31.5, (y(31) + y(32)) / 2, 0}, both)
	last := sn.blocks[len(sn.blocks)-1]
	if e := live(mid); e == &sn.blocks[0].e[0] || e == &last.e[last.n-1] {
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
	before := sn.size
	p := 21
	for ; sn.size == before; p++ {
		if p >= n {
			t.Fatal("compaction never triggered")
		}
		s.KillForQueries(p, both)
		checkMembership(t, s, n+2, "kill")
	}
	if sn.dead != 0 || sn.size != before-(p-21) {
		t.Fatalf("after compaction: %d entries, %d dead, killed %d of %d", sn.size, sn.dead, p-21, before)
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
	if sn.size != 0 || len(sn.blocks) != 0 || s.find(sn, 0) != nil {
		t.Fatalf("retiring the last query left %d entries", sn.size)
	}
	checkMembership(t, s, n+2, "retire 1")

	// place's three ways through a full block, each on a fresh window of one
	// full block whose slice of heads has no room for a second, so that the
	// split's insert moves the heads: the new entry lands in the first half,
	// in the second half, or past the block's end, where it starts a block
	// of its own.
	for _, tc := range []struct {
		name  string
		lands func(pos int) bool // pos: the new entry's place among the block's
		sizes [2]int
	}{
		{"split, first half", func(pos int) bool { return pos < blockCap/2 }, [2]int{blockCap/2 + 1, blockCap / 2}},
		{"split, second half", func(pos int) bool { return pos > blockCap/2 && pos < blockCap }, [2]int{blockCap / 2, blockCap/2 + 1}},
		{"past a full block", func(pos int) bool { return pos == blockCap }, [2]int{blockCap, 1}},
	} {
		s := NewSharedSkylineIn(c, nil, []float64{0, 0, 0}, []float64{n, y(0), 1})
		sn := s.prefSN[0]
		for p := 0; p < blockCap; p++ {
			s.Insert(p, []float64{float64(p), y(float64(p)), 0}, both)
		}
		if len(sn.blocks) != 1 || sn.blocks[0].n != blockCap || cap(sn.blocks) != 1 {
			t.Fatalf("%s: %d blocks (room for %d), want one full block", tc.name, len(sn.blocks), cap(sn.blocks))
		}
		// The first point of the curve between two of the window's, or
		// past them all, whose key lands where the case wants it.
		var vals []float64
		for x := 0.5; x < n && vals == nil; x++ {
			v := []float64{x, y(x), 0}
			s.spreadLanes(sn, v)
			if bi, ei := sn.seek(sn.zKey(s.zs), true); tc.lands(bi*blockCap + ei) {
				vals = v
			}
		}
		if vals == nil {
			t.Fatalf("%s: no point of the curve lands there", tc.name)
		}
		s.Insert(blockCap, vals, both)
		if len(sn.blocks) != 2 || sn.blocks[0].n != tc.sizes[0] || sn.blocks[1].n != tc.sizes[1] {
			t.Fatalf("%s: %d blocks, the first two of %d and %d entries, want %v", tc.name, len(sn.blocks), sn.blocks[0].n, sn.blocks[1].n, tc.sizes)
		}
		if e := s.find(sn, blockCap); e == nil || e.alive != both {
			t.Fatalf("%s: find = %+v, want the new point's live entry", tc.name, e)
		}
		checkMembership(t, s, blockCap+1, tc.name)
	}
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

// TestZKeyMonotone: w ⪯ p in a node's subspace implies zKey(w) ≤ zKey(p),
// the property that lets the prefix scan stop at the first larger key and
// the suffix scan start at the tie run. Nodes of 1 to 6 dimensions (the
// last two read only their first four in the key) over three grids: the
// unit box NewSharedSkyline takes, a box per dimension, and a box that
// gives one dimension no extent and ends before the last three;
// coordinates drawn from ties, −0, ±Inf, NaN, values far outside the grid
// and plain floats. Weak dominance is IEEE ≤ on every dimension, so a
// NaN coordinate dominates nothing and is dominated by nothing; its key
// must still be computed.
func TestZKeyMonotone(t *testing.T) {
	const dims = 6
	lo, hi := []float64{0, -5, 10, 0, 0, 100}, []float64{1, 5, 20, 1000, 1e-3, 101}
	rng := rand.New(rand.NewSource(5))
	specials := []float64{0, math.Copysign(0, -1), 1, 2, math.Inf(1), math.Inf(-1), math.NaN(), -1e300, 1e300, 1e-310, 0.5}
	coord := func(k int) float64 {
		switch rng.Intn(3) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return float64(rng.Intn(3)) // ties
		default:
			return lo[k] + (hi[k]-lo[k])*(rng.Float64()*1.4-0.2) // a fifth outside on each side
		}
	}
	weak := func(sub preference.Subspace, a, b []float64) bool {
		for _, d := range sub {
			if !(a[d] <= b[d]) {
				return false
			}
		}
		return true
	}
	c, err := BuildCuboid([]preference.Subspace{preference.NewSubspace(0)})
	if err != nil {
		t.Fatal(err)
	}
	grids := []*SharedSkyline{
		NewSharedSkyline(c, nil),
		NewSharedSkylineIn(c, nil, lo, hi),
		NewSharedSkylineIn(c, nil, lo[:3], []float64{hi[0], lo[1], hi[2]}),
	}
	for _, s := range grids {
		for size := 1; size <= dims; size++ {
			pairs := 0
			for trial := 0; trial < 20000; trial++ {
				sn := &sharedNode{sub: preference.NewSubspace(rng.Perm(dims)[:size]...)}
				p, w := make([]float64, dims), make([]float64, dims)
				for k := range p {
					p[k] = coord(k)
					switch rng.Intn(3) {
					case 0:
						w[k] = p[k]
					case 1:
						w[k] = coord(k)
					default: // below p where p allows it
						w[k] = p[k] - math.Abs(coord(k))
					}
				}
				s.spreadDims(p)
				zp := sn.zKey(s.zs)
				s.spreadLanes(sn, w)
				zw := sn.zKey(s.zs)
				if weak(sn.sub, w, p) {
					pairs++
					if zw > zp {
						t.Fatalf("grid %v, subspace %v: w=%v ⪯ p=%v but zKey %x > %x", s.zscale, sn.sub, w, p, zw, zp)
					}
				}
				if weak(sn.sub, p, w) && zp > zw {
					t.Fatalf("subspace %v: p=%v ⪯ w=%v but zKey %x > %x", sn.sub, p, w, zp, zw)
				}
			}
			if pairs < 1000 {
				t.Fatalf("size %d: only %d dominance pairs drawn", size, pairs)
			}
		}
	}
}

// TestSpreadInterleaves pins spread against the bit-by-bit definition.
func TestSpreadInterleaves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		x := uint64(rng.Intn(1 << zBits))
		var want uint64
		for b := 0; b < zBits; b++ {
			want |= (x >> uint(b) & 1) << uint(4*b)
		}
		if got := spread(x); got != want {
			t.Fatalf("spread(%#x) = %#x, want %#x", x, got, want)
		}
	}
}

// BenchmarkWindowInsert times the insert hop alone: anti-correlated 4-d
// points (near the plane where the coordinates sum to 2, as batch-anti's
// join results lie near theirs) inserted into a fresh shared skyline over
// the 11-query lattice of every subspace of at least two of the four
// dimensions, each point competing for every query. One op inserts the
// whole set; ns/cmp is the time per counted SkylineCmp and cmps/op the
// count, which a change to how fast a comparison runs must leave alone.
//
//	go test -run '^$' -bench WindowInsert ./internal/skycube
func BenchmarkWindowInsert(b *testing.B) {
	const n, d = 50000, 4
	rng := rand.New(rand.NewSource(2014))
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		sum := 0.0
		for k := range p {
			p[k] = rng.Float64()
			sum += p[k]
		}
		shift := (2-sum)/d + rng.NormFloat64()*0.03
		for k := range p {
			p[k] = min(1, max(0, p[k]+shift))
		}
		points[i] = p
	}
	prefs := allSubspaces(d)
	c, err := BuildCuboid(prefs)
	if err != nil {
		b.Fatal(err)
	}
	var all QSet
	for qi := range prefs {
		all = all.Add(qi)
	}
	var cmps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock := metrics.NewClock()
		s := NewSharedSkyline(c, clock)
		for p, vals := range points {
			s.Insert(p, vals, all)
		}
		cmps = clock.Counters().SkylineCmps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cmps*int64(b.N)), "ns/cmp")
	b.ReportMetric(float64(cmps), "cmps/op")
}
