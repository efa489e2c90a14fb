package skycube

import (
	"math/rand"
	"sort"
	"testing"

	"caqe/internal/metrics"
	"caqe/internal/preference"
)

// liveMembers is the reference for node membership: payload -> its live
// window entry, read off the window by a plain linear pass — what the
// per-node payload-indexed member arrays used to record. It fails the test
// if the window breaks an invariant find's binary search or the block tests
// rely on: entries out of key order (within a block or across two), two
// live entries of one payload, a key or lanes that are not the arena's, an
// empty or overfull block, a head whose last key is not its last entry's,
// or a live entry outside its block's bounds.
func liveMembers(t *testing.T, s *SharedSkyline, sn *sharedNode) map[int]*sharedEntry {
	t.Helper()
	m := make(map[int]*sharedEntry)
	dead, size := 0, 0
	var prev *sharedEntry
	for bi, b := range sn.blocks {
		if b.n < 1 || b.n > blockCap {
			t.Fatalf("node %d: block %d holds %d entries", sn.idx, bi, b.n)
		}
		if b.last != b.e[b.n-1].key {
			t.Fatalf("node %d: block %d's head says its last key is %x, its last entry has %x", sn.idx, bi, b.last, b.e[b.n-1].key)
		}
		size += b.n
		for i := range b.e[:b.n] {
			e := &b.e[i]
			if prev != nil && prev.key > e.key {
				t.Fatalf("node %d: window out of key order at block %d, entry %d", sn.idx, bi, i)
			}
			prev = e
			if e.alive == 0 {
				dead++
				continue
			}
			if m[int(e.payload)] != nil {
				t.Fatalf("node %d: payload %d has two live entries", sn.idx, e.payload)
			}
			var p preference.Lanes
			sn.project(s.PointVals(int(e.payload)), &p)
			s.spreadLanes(sn, s.PointVals(int(e.payload)))
			if z := sn.zKey(s.zs); p != e.proj || z != e.key {
				t.Fatalf("node %d: payload %d sorted under %x with lanes %v, arena gives %x, %v", sn.idx, e.payload, e.key, e.proj, z, p)
			}
			if !preference.WeakLanes(&b.lo, &e.proj) || !preference.WeakLanes(&e.proj, &b.hi) {
				t.Fatalf("node %d: payload %d at %v lies outside its block's bounds %v–%v", sn.idx, e.payload, e.proj, b.lo, b.hi)
			}
			m[int(e.payload)] = e
		}
	}
	if dead != sn.dead || size != sn.size {
		t.Fatalf("node %d: %d entries, %d dead in the window, counters say %d, %d", sn.idx, size, dead, sn.size, sn.dead)
	}
	return m
}

// checkMembership compares every point lookup — find, the mask bits of every
// node that has them, IsCandidate and the cand word behind it, Candidates —
// with the reference, for every payload ever used plus a few that never
// were. IsCandidate is asked for every one of the 64 query bits: a retired
// slot, or one never used, has no candidate.
func checkMembership(t *testing.T, s *SharedSkyline, payloads int, step string) {
	t.Helper()
	ref := make(map[*sharedNode]map[int]*sharedEntry, len(s.nodes))
	for _, sn := range s.nodes {
		var prefQ QSet
		for qi, p := range s.prefSN {
			if p == sn {
				prefQ = prefQ.Add(qi)
			}
		}
		if sn.prefQ != prefQ {
			t.Fatalf("%s: node %d is the preference node of %v, prefQ says %v", step, sn.idx, prefQ, sn.prefQ)
		}
		m := liveMembers(t, s, sn)
		ref[sn] = m
		for p := 0; p < payloads+3; p++ {
			if got := s.find(sn, p); got != m[p] {
				t.Fatalf("%s: find(node %d, payload %d) = %p, window holds %p", step, sn.idx, p, got, m[p])
			}
			if bit := nodeBit(sn); bit != 0 && p < payloads {
				if (s.mask(p).member&bit != 0) != (m[p] != nil) {
					t.Fatalf("%s: member bit of payload %d at node %d disagrees with the window", step, p, sn.idx)
				}
				if (s.mask(p).clean&bit != 0) != (m[p] != nil && m[p].clean) {
					t.Fatalf("%s: clean bit of payload %d at node %d disagrees with the window", step, p, sn.idx)
				}
			}
		}
	}
	for qi := 0; qi < 64; qi++ {
		var sn *sharedNode
		if qi < len(s.prefSN) {
			sn = s.prefSN[qi]
		}
		if sn == nil {
			for p := 0; p < payloads+3; p++ {
				if s.IsCandidate(p, qi) {
					t.Fatalf("%s: IsCandidate(%d, %d) for a query with no node", step, p, qi)
				}
			}
			continue
		}
		var want []int
		for p, e := range ref[sn] {
			if e.alive.Has(qi) {
				want = append(want, p)
			}
		}
		sort.Ints(want)
		if got := s.Candidates(qi); !sameInts(got, want) {
			t.Fatalf("%s: Candidates(%d) = %v, want %v", step, qi, got, want)
		}
		for p := 0; p < payloads+3; p++ {
			e := ref[sn][p]
			if got, want := s.IsCandidate(p, qi), e != nil && e.alive.Has(qi); got != want {
				t.Fatalf("%s: IsCandidate(%d, %d) = %v, want %v", step, p, qi, got, want)
			}
		}
	}
}

// TestMembershipMatchesReference drives random schedules of every operation
// that creates, kills or relocates window entries and checks all membership
// lookups against the linear-pass reference after each one; the reference
// also holds every live entry inside its block's bounds and every block in
// key order. Coordinates come from a three-value domain, so equal keys (and
// equal points) are the rule, and every schedule runs over two grids: [0, 2],
// where each value has a quantum of its own, and the unit box, where 1 and 2
// clamp to one, as an appended row outside the plan's grid does, so that a
// tie run also holds points that differ:
// find's walk over the tie run, the dead-entry skip and insertAt's
// already-a-member exit all run constantly. Four plans: a 4-dimension one,
// one that outgrows the 64 mask bits mid-schedule (its dynamic nodes get
// none), one past 64 nodes from the start (so cuboid nodes without a bit
// search their windows and protect nothing), and one with 5- and
// 6-dimension nodes, so that both scans compare through the kernel.
//
// Each schedule also runs under a clock, and its total comparison count is
// pinned, per grid and seed: the schedules are the one place where re-inserts, dead entries in
// the tie run and nodes without a mask bit all meet the insert path's
// accounting, so a rework of that path must charge exactly these.
func TestMembershipMatchesReference(t *testing.T) {
	plans := []struct {
		name  string
		d     int
		prefs []preference.Subspace
		cmps  [2][3]int64 // SkylineCmps over [0, 2] and the unit box, of seeds 1, 2, 3
	}{
		{"4d", 4, []preference.Subspace{preference.NewSubspace(0, 1), preference.NewSubspace(1, 2, 3),
			preference.NewSubspace(0, 1, 2), preference.NewSubspace(2, 3)}, [2][3]int64{{3707, 3711, 1677}, {3719, 3747, 1715}}},
		{"outgrows-masks", 6, allSubspaces(6), [2][3]int64{{100379, 94586, 100184}, {101207, 95788, 101654}}},
		{"past-64", 7, allSubspaces(7)[:60], [2][3]int64{{88854, 104848, 108479}, {89310, 106158, 109261}}},
		{"wide-masks", 8, []preference.Subspace{preference.NewSubspace(0, 1, 2, 3, 4),
			preference.NewSubspace(2, 3, 4, 5, 6, 7)}, [2][3]int64{{1207, 1154, 4217}, {1220, 1186, 4294}}},
	}
	for _, plan := range plans {
		t.Run(plan.name, func(t *testing.T) {
			c, err := BuildCuboid(plan.prefs)
			if err != nil {
				t.Fatal(err)
			}
			flips := map[string]int{}
			for g, top := range []float64{2, 1} {
				for seed := int64(1); seed <= 3; seed++ {
					clock := metrics.NewClock()
					s := NewSharedSkylineIn(c, clock, make([]float64, plan.d), box(plan.d, top))
					runMembershipSchedule(t, s, plan.d, seed, flips)
					if got, want := clock.Counters().SkylineCmps, plan.cmps[g][seed-1]; got != want {
						t.Errorf("grid [0, %g], seed %d: %d comparisons, want %d", top, seed, got, want)
					}
				}
			}
			// Every operation that writes alive sets must have moved some
			// candidacy, so that checkMembership held IsCandidate to the
			// windows across each kind of write.
			// "reused-slot" counts the changes to slots SetDynamicQuery gave a
			// new query after RetireQuery freed them.
			for _, op := range []string{"insert", "retire", "resettle", "remove", "reused-slot"} {
				if flips[op] == 0 {
					t.Errorf("no %s changed a candidacy", op)
				}
			}
		})
	}
}

// box returns d upper bounds, each top.
func box(d int, top float64) []float64 {
	hi := make([]float64, d)
	for k := range hi {
		hi[k] = top
	}
	return hi
}

// allSubspaces returns every subspace of at least 2 of d dimensions.
func allSubspaces(d int) []preference.Subspace {
	var out []preference.Subspace
	for m := uint64(1); m < 1<<uint(d); m++ {
		if sub := preference.SubspaceFromMask(m); len(sub) >= 2 {
			out = append(out, sub)
		}
	}
	return out
}

// candOf is payload p's cand word, zero where no mask covers it yet.
func candOf(s *SharedSkyline, p int) QSet {
	if p>>maskShift < len(s.masks) {
		return s.mask(p).cand
	}
	return 0
}

// runMembershipSchedule runs one random schedule on s, checking membership
// after every step, and counts in flips, per operation, the (payload, query)
// candidacies that the step changed, and under "reused-slot" those of
// queries admitted into a retired query's slot.
func runMembershipSchedule(t *testing.T, s *SharedSkyline, d int, seed int64, flips map[string]int) {
	rng := rand.New(rand.NewSource(seed))
	var pts [][]float64 // write-once: a payload keeps its coordinates for good
	var lineages []QSet
	dynamic := map[int]bool{} // live dynamically added queries
	var retired []int         // slots RetireQuery freed
	var reused QSet           // live queries SetDynamicQuery put in a freed slot

	live := func() QSet {
		var q QSet
		for qi, sn := range s.prefSN {
			if sn != nil {
				q = q.Add(qi)
			}
		}
		return q
	}
	randSubset := func(of QSet) QSet {
		var q QSet
		for qi := of.Next(0); qi >= 0; qi = of.Next(qi + 1) {
			if rng.Intn(3) == 0 {
				q = q.Add(qi)
			}
		}
		if q == 0 && of != 0 {
			q = q.Add(of.Next(0))
		}
		return q
	}
	randPref := func() preference.Subspace {
		return preference.SubspaceFromMask(1 + uint64(rng.Intn(1<<uint(d)-1)))
	}
	// insert checks Insert's return against the reference: candidacy of
	// each lineage query, read at its full-preference node after the call.
	insert := func(p int, lineage QSet) {
		got := s.Insert(p, pts[p], lineage)
		var want QSet
		for qi := lineage.Next(0); qi >= 0; qi = lineage.Next(qi + 1) {
			if e := liveMembers(t, s, s.prefSN[qi])[p]; e != nil && e.alive.Has(qi) {
				want = want.Add(qi)
			}
		}
		if got != want {
			t.Fatalf("Insert(%d, %v, %v) = %v, windows say %v", p, pts[p], lineage, got, want)
		}
	}

	var cands []QSet // each payload's candidacy before the step
	for step := 0; step < 400; step++ {
		cands = cands[:0]
		for p := range pts {
			cands = append(cands, candOf(s, p))
		}
		op := rng.Intn(20)
		name := "insert"
		switch {
		case op < 9 || len(pts) == 0: // a new point
			p := make([]float64, d)
			for k := range p {
				p[k] = float64(rng.Intn(3))
			}
			pts = append(pts, p)
			lineages = append(lineages, randSubset(live()))
			if l := lineages[len(pts)-1]; l != 0 {
				insert(len(pts)-1, l)
			}
		case op < 11: // an old point again: live where it survived, back where it died
			name = "reinsert"
			p := rng.Intn(len(pts))
			if l := lineages[p] & live(); l != 0 {
				insert(p, l)
			}
		case op < 14: // the delete's lineage grant: judged afresh under a grown lineage
			name = "resettle"
			p := rng.Intn(len(pts))
			lineages[p] |= randSubset(live())
			if l := lineages[p] & live(); l != 0 {
				s.Resettle(p, l)
			}
		case op < 16: // seed an existing point into a dynamic query's node
			name = "insert-for-query"
			if len(dynamic) > 0 {
				qis := make([]int, 0, len(dynamic))
				for qi := range dynamic {
					qis = append(qis, qi)
				}
				sort.Ints(qis)
				qi, p := qis[rng.Intn(len(qis))], rng.Intn(len(pts))
				got := s.InsertForQuery(p, qi)
				e := liveMembers(t, s, s.prefSN[qi])[p]
				if want := e != nil && e.alive.Has(qi); got != want {
					t.Fatalf("InsertForQuery(%d, %d) = %v, window says %v", p, qi, got, want)
				}
				lineages[p] = lineages[p].Add(qi)
			}
		case op < 17:
			name = "add-dynamic"
			if qi, err := s.AddDynamicQuery(randPref()); err == nil {
				dynamic[qi] = true
			}
		case op < 18:
			name = "retire"
			if l := live(); l.Count() > 1 {
				qi := l.Next(rng.Intn(64))
				if qi < 0 {
					qi = l.Next(0)
				}
				s.RetireQuery(qi)
				reused &^= QSet(0).Add(qi)
				delete(dynamic, qi)
				retired = append(retired, qi)
				for p := range lineages {
					lineages[p] &^= QSet(0).Add(qi)
				}
			}
		case op < 19:
			name = "set-dynamic"
			if n := len(retired); n > 0 {
				qi := retired[n-1]
				retired = retired[:n-1]
				if err := s.SetDynamicQuery(qi, randPref()); err != nil {
					t.Fatal(err)
				}
				reused = reused.Add(qi)
				dynamic[qi] = true
			}
		default: // the delete repair: a point leaves every window, or is judged afresh
			p := rng.Intn(len(pts))
			var wantWas QSet
			wantNodes := 0
			for _, sn := range s.nodes {
				e := liveMembers(t, s, sn)[p]
				if e == nil {
					continue
				}
				wantNodes++
				for qi := e.alive.Next(0); qi >= 0; qi = e.alive.Next(qi + 1) {
					if s.prefSN[qi] == sn {
						wantWas = wantWas.Add(qi)
					}
				}
			}
			if l := lineages[p] & live(); l != 0 && rng.Intn(2) == 0 {
				name = "resettle"
				now, was := s.Resettle(p, l)
				var wantNow QSet
				for qi := l.Next(0); qi >= 0; qi = l.Next(qi + 1) {
					if e := liveMembers(t, s, s.prefSN[qi])[p]; e != nil && e.alive.Has(qi) {
						wantNow = wantNow.Add(qi)
					}
				}
				if now != wantNow || was != wantWas&l {
					t.Fatalf("Resettle(%d, %v) = now %v, was %v; windows say %v, held %v", p, l, now, was, wantNow, wantWas&l)
				}
			} else {
				name = "remove"
				if rem := s.Remove(p, nil); len(rem) != wantNodes {
					t.Fatalf("Remove(%d) took out %d entries, windows held %d", p, len(rem), wantNodes)
				}
				for _, sn := range s.nodes {
					if liveMembers(t, s, sn)[p] != nil {
						t.Fatalf("Remove(%d) left a live entry at node %d", p, sn.idx)
					}
				}
			}
		}
		checkMembership(t, s, len(pts), name)
		for p, was := range cands {
			flips[name] += (candOf(s, p) ^ was).Count()
			flips["reused-slot"] += ((candOf(s, p) ^ was) & reused).Count()
		}
	}
}

// TestReinsertAfterKillFindsLiveEntry is the one schedule the old member
// arrays made trivial and a sum-run lookup could get wrong: a removed point
// whose dead entry is still in the window (compaction is batched) must not
// be found, and inserting it again must resolve to the new, live entry.
func TestReinsertAfterKillFindsLiveEntry(t *testing.T) {
	c, err := BuildCuboid([]preference.Subspace{preference.NewSubspace(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharedSkyline(c, nil)
	q := QSet(0).Add(0)
	// Three mutually incomparable points with one coordinate sum.
	s.Insert(0, []float64{0, 2}, q)
	s.Insert(1, []float64{1, 1}, q)
	s.Insert(2, []float64{2, 0}, q)
	s.Remove(1, nil)
	sn := s.prefSN[0]
	if sn.size != 3 || sn.dead != 1 {
		t.Fatalf("window %d entries, %d dead: the dead entry should still be there", sn.size, sn.dead)
	}
	if s.IsCandidate(1, 0) || s.find(sn, 1) != nil {
		t.Fatal("removed point still found")
	}
	if got := s.Insert(1, []float64{1, 1}, q); got != q {
		t.Fatalf("reinsert returned %v", got)
	}
	e := s.find(sn, 1)
	if e == nil || e.alive != q || !s.IsCandidate(1, 0) {
		t.Fatalf("reinserted point resolves to %+v", e)
	}
	if got := s.Candidates(0); !sameInts(got, []int{0, 1, 2}) {
		t.Fatalf("Candidates = %v", got)
	}
	// Inserting a live member again is a no-op that reports its candidacy.
	if got := s.Insert(1, []float64{1, 1}, q); got != q || s.find(sn, 1) != e || sn.size-sn.dead != 3 {
		t.Fatalf("second insert of a live member: returned %v, window %d", got, sn.size)
	}
	checkMembership(t, s, 3, "reinsert")
}

// TestDynamicNodeOwnsItsPreference: a dynamic node compares in its own copy
// of the preference it was admitted with. The kernel reads its subspace on
// every comparison (sum key and Relate both, at 5 dimensions), so a node
// whose kernel aliased the caller's slice would follow whatever the caller
// writes there next. Both admission paths are driven: a fresh node
// (AddDynamicQuery) and a recycled one (RetireQuery + SetDynamicQuery).
func TestDynamicNodeOwnsItsPreference(t *testing.T) {
	c, err := BuildCuboid([]preference.Subspace{preference.NewSubspace(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharedSkyline(c, nil)
	want := preference.NewSubspace(0, 1, 2, 3, 4)
	paths := []struct {
		name  string
		admit func(pref preference.Subspace) int
	}{
		{"add", func(pref preference.Subspace) int {
			qi, err := s.AddDynamicQuery(pref)
			if err != nil {
				t.Fatal(err)
			}
			return qi
		}},
		{"set", func(pref preference.Subspace) int {
			s.RetireQuery(1)
			if err := s.SetDynamicQuery(1, pref); err != nil {
				t.Fatal(err)
			}
			return 1
		}},
	}
	rng := rand.New(rand.NewSource(17))
	var pts [][]float64
	var lineages []QSet
	for _, path := range paths {
		pref := append(preference.Subspace(nil), want...)
		qi := path.admit(pref)
		for i := range pref {
			pref[i] = 5 // the caller reuses its slice
		}
		// Every earlier point belongs to the retired occupant of the slot.
		for i := range lineages {
			lineages[i] = 0
		}
		q := QSet(0).Add(qi)
		batch := [][]float64{{1, 1, 1, 1, 1, 9}, {2, 2, 2, 2, 2, 0}}
		for i := 0; i < 40; i++ {
			p := make([]float64, 6)
			for k := range p {
				p[k] = float64(rng.Intn(4))
			}
			batch = append(batch, p)
		}
		for _, p := range batch {
			s.Insert(len(pts), p, q)
			pts = append(pts, p)
			lineages = append(lineages, q)
		}
		if got, oracle := s.Candidates(qi), naiveQuerySkyline(want, pts, lineages, qi); !sameInts(got, oracle) {
			t.Fatalf("%s: Candidates = %v, skyline over %v is %v", path.name, got, want, oracle)
		}
		checkMembership(t, s, len(pts), path.name)
	}
}
