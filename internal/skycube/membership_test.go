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
// if the window is out of sum order or holds two live entries of one
// payload, the two things find's binary search could not survive.
func liveMembers(t *testing.T, s *SharedSkyline, sn *sharedNode) map[int]*sharedEntry {
	t.Helper()
	m := make(map[int]*sharedEntry)
	dead := 0
	for i := range sn.window {
		e := &sn.window[i]
		if i > 0 && sn.window[i-1].sum > e.sum {
			t.Fatalf("node %d: window out of sum order at %d", sn.idx, i)
		}
		if e.alive == 0 {
			dead++
			continue
		}
		if m[int(e.payload)] != nil {
			t.Fatalf("node %d: payload %d has two live entries", sn.idx, e.payload)
		}
		if got := sn.kern.Sum(s.PointVals(int(e.payload))); got != e.sum {
			t.Fatalf("node %d: payload %d sorted under %v, arena sums to %v", sn.idx, e.payload, e.sum, got)
		}
		m[int(e.payload)] = e
	}
	if dead != sn.dead {
		t.Fatalf("node %d: %d dead entries in the window, counter says %d", sn.idx, dead, sn.dead)
	}
	return m
}

// checkMembership compares every point lookup — find, the masks when they
// are maintained, IsCandidate, Candidates — with the reference, for every
// payload ever used plus a few that never were.
func checkMembership(t *testing.T, s *SharedSkyline, payloads int, step string) {
	t.Helper()
	ref := make(map[*sharedNode]map[int]*sharedEntry, len(s.nodes))
	for _, sn := range s.nodes {
		m := liveMembers(t, s, sn)
		ref[sn] = m
		for p := 0; p < payloads+3; p++ {
			if got := s.find(sn, p); got != m[p] {
				t.Fatalf("%s: find(node %d, payload %d) = %p, window holds %p", step, sn.idx, p, got, m[p])
			}
			if s.useMasks && p < payloads {
				bit := uint64(1) << uint(sn.idx)
				if (s.mask(p).member&bit != 0) != (m[p] != nil) {
					t.Fatalf("%s: member bit of payload %d at node %d disagrees with the window", step, p, sn.idx)
				}
				if (s.mask(p).clean&bit != 0) != (m[p] != nil && m[p].clean) {
					t.Fatalf("%s: clean bit of payload %d at node %d disagrees with the window", step, p, sn.idx)
				}
			}
		}
	}
	for qi, sn := range s.prefSN {
		if sn == nil {
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
// lookups against the linear-pass reference after each one. Coordinates come
// from a three-value domain, so equal sums (and equal points) are the rule:
// find's walk over the tie run, the dead-entry skip and insertAt's
// already-a-member exit all run constantly. Three plans: one that stays on
// the payload masks, one that outgrows them mid-schedule, one that never
// had them (so childProtects takes its find-based fallback over real
// cuboid children).
//
// Each schedule also runs under a clock, and its total comparison count is
// pinned: the schedules are the one place where re-inserts, dead entries in
// the tie run and the masks-off fallback all meet the insert path's
// accounting, so a rework of that path must charge exactly these.
func TestMembershipMatchesReference(t *testing.T) {
	all := func(d int) []preference.Subspace { // every subspace of ≥ 2 of d dimensions
		var out []preference.Subspace
		for m := uint64(1); m < 1<<uint(d); m++ {
			if sub := preference.SubspaceFromMask(m); len(sub) >= 2 {
				out = append(out, sub)
			}
		}
		return out
	}
	plans := []struct {
		name              string
		d                 int
		prefs             []preference.Subspace
		masksAtStart, end bool
		cmps              [3]int64 // SkylineCmps of seeds 1, 2, 3
	}{
		{"masks", 4, []preference.Subspace{preference.NewSubspace(0, 1), preference.NewSubspace(1, 2, 3),
			preference.NewSubspace(0, 1, 2), preference.NewSubspace(2, 3)}, true, true, [3]int64{2212, 2566, 1256}},
		{"outgrows-masks", 6, all(6), true, false, [3]int64{87703, 72453, 79457}},
		{"no-masks", 7, all(7)[:60], false, false, [3]int64{72026, 81853, 79860}},
	}
	for _, plan := range plans {
		t.Run(plan.name, func(t *testing.T) {
			c, err := BuildCuboid(plan.prefs)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				clock := metrics.NewClock()
				s := NewSharedSkyline(c, clock)
				if s.useMasks != plan.masksAtStart {
					t.Fatalf("%d nodes: useMasks = %v at start", len(s.nodes), s.useMasks)
				}
				runMembershipSchedule(t, s, plan.d, seed)
				if s.useMasks != plan.end {
					t.Fatalf("%d nodes: useMasks = %v at end", len(s.nodes), s.useMasks)
				}
				if got, want := clock.Counters().SkylineCmps, plan.cmps[seed-1]; got != want {
					t.Errorf("seed %d: %d comparisons, want %d", seed, got, want)
				}
			}
		})
	}
}

func runMembershipSchedule(t *testing.T, s *SharedSkyline, d int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var pts [][]float64 // write-once: a payload keeps its coordinates for good
	var lineages []QSet
	dynamic := map[int]bool{} // live dynamically added queries
	var retired []int         // slots RetireQuery freed

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

	for step := 0; step < 400; step++ {
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
		case op < 14:
			name = "kill"
			s.KillForQueries(rng.Intn(len(pts)), randSubset(live()))
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
	}
}

// TestReinsertAfterKillFindsLiveEntry is the one schedule the old member
// arrays made trivial and a sum-run lookup could get wrong: a killed point
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
	s.KillForQueries(1, q)
	sn := s.prefSN[0]
	if len(sn.window) != 3 || sn.dead != 1 {
		t.Fatalf("window %d entries, %d dead: the dead entry should still be there", len(sn.window), sn.dead)
	}
	if s.IsCandidate(1, 0) || s.find(sn, 1) != nil {
		t.Fatal("killed point still found")
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
	if got := s.Insert(1, []float64{1, 1}, q); got != q || s.find(sn, 1) != e || len(sn.window)-sn.dead != 3 {
		t.Fatalf("second insert of a live member: returned %v, window %d", got, len(sn.window))
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
