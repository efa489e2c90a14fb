package skycube

import (
	"fmt"
	"math"
	"sort"

	"caqe/internal/metrics"
	"caqe/internal/preference"
)

// SharedSkyline maintains the multi-query skyline state over the min-max
// cuboid shared plan. Every inserted point carries a *lineage*: the set of
// queries for which it is a candidate result (derived from the join
// condition and region that produced it, §6 "cell query-lineage"). A point
// is inserted into every cuboid node whose QServe set intersects its
// lineage, in ascending level order.
//
// Comparison sharing (§4.1): when two points are both current skyline
// members of a common *child* subspace U and the protected point's window
// entry is "clean" there (no compared point even weakly dominates it in U),
// dominance against it in the parent V ⊇ U is impossible —
// ¬(w ⪯_U p) ⇒ ∃k ∈ U: w[k] > p[k] ⇒ w ⊀_V p — so the comparison is
// skipped entirely. Under the DVA property this recovers exactly the
// paper's claim that comparisons along shared dimensions are performed only
// once; without DVA (ties present) the clean flag makes the skip
// conservative and the result provably exact.
//
// Eviction is lineage-aware: a dominating point kills a member only for the
// queries in the dominator's lineage. Correctness across removals follows
// from the transitivity of strict dominance within a fixed subspace.
//
// Memory layout (DESIGN.md §7): point coordinates live in one slab arena
// instead of a per-point heap slice; a window holds its entries by value, one
// cache line each, so a scan walks contiguous memory and compares entry-local
// projections (sharedEntry.proj); and the child-protection test is a 3-way
// AND over payload-indexed node bitmasks. Nothing is kept per (node, payload):
// a node knows its members only through its window (see find), so standing
// state is the windows plus a few pointer-free words per join result.
// Entries killed by KillForQueries are marked dead and batch-compacted
// instead of spliced one at a time. None of this changes any observable:
// candidate sets, comparison counts and iteration orders are identical to
// the reference implementation — dead entries are skipped without
// accounting, exactly as if they had been removed eagerly.
//
// Payloads must be small non-negative integers (the engine assigns them
// sequentially): they index the arena and the masks; Insert states the range.
type SharedSkyline struct {
	cuboid *Cuboid
	clock  *metrics.Clock
	nodes  []*sharedNode          // aligned with cuboid.Nodes (ascending level)
	prefSN []*sharedNode          // query index -> node of its full preference
	points *preference.FlatPoints // payload-indexed coordinate arena (created at first Insert)

	// freeNodes holds dedicated dynamic-query nodes whose query retired;
	// SetDynamicQuery re-keys one of these before appending a fresh node, so
	// long sessions with query turnover keep the node count (and the
	// payload-mask fast path) bounded. Only dynamic nodes are ever recycled:
	// cuboid nodes are lattice children of other nodes and must keep their
	// subspace.
	freeNodes []*sharedNode

	// Per-payload bitmasks over node indices, maintained iff the plan has at
	// most 64 nodes (childProtects falls back to the member scan otherwise).
	// Fixed-size chunks, so covering one more payload never copies.
	useMasks bool
	masks    []*[maskChunk]payloadMasks

	// Resettle's channel into insertAt, kept off the insert path's signature:
	// while replacing is set, insertAt kills the point's live entry where it
	// meets one — in the tie-run search a possible member makes anyway — and
	// leaves that entry's alive set in replaced. As a parameter and a second
	// result of insertAt the same thing read slower on batch-indep, where an insert
	// meets few comparisons: done_p50_ms +5.6 % against PR 22 (0 of 5 pairs)
	// where this form reads +3.5 % and +1.5 % (0 of 4, 1 of 6), and +1.6 %
	// head to head (1 of 5) — small, but it is the one path every join
	// result takes (EXPERIMENTS.md "What a delete costs").
	replacing bool
	replaced  QSet

	_ [0]func(*SharedSkyline) // incomparable
}

// payloadMasks are one payload's node bitmasks: member bit n ⇔ the payload
// is a live member at node n; clean bit n additionally requires the entry's
// clean flag.
type payloadMasks struct{ member, clean uint64 }

const (
	maskShift = 12
	maskChunk = 1 << maskShift
)

func (s *SharedSkyline) mask(payload int) *payloadMasks {
	return &s.masks[payload>>maskShift][payload&(maskChunk-1)]
}

// sharedEntry is one window slot, stored by value and exactly one cache line
// (TestSharedEntryIsOneCacheLine). Entries move when the window shifts: a
// *sharedEntry (find's result) is good only until that window's next mutation.
type sharedEntry struct {
	payload int32   // Insert guards the range
	clean   bool    // no compared point weakly dominates it in this subspace
	sum     float64 // Σ coordinates over the node's subspace (window sort key)
	lineage QSet    // immutable: queries this point competes for at this node
	alive   QSet    // queries for which the point is still a skyline candidate here

	// proj holds the point projected onto the node's subspace
	// (preference.Lanes), for subspaces of at most 4 dimensions: the scan
	// compares entry-local fixed-size arrays under preference.WeakLanes.
	// Subspaces with ≥ 5 dimensions leave proj zero and compare through the
	// kernel against the arena.
	//
	// This is the one specialised comparator in the repository, kept because
	// it was measured: with the lane conjunctions of insertAt replaced by
	// sn.kern.Relate against the arena, batch-anti done_p50_ms went from
	// 1257–1450 to 2140–2422 (+71 % in the median) and cpu_ms_per_query from
	// 122–138 to 202–227, 4 of 4 alternating pairs on PR 17's code, every
	// comparison count equal. PR 22 made the lanes branch-free and the window
	// a value slice: 1328 → 816 (−39 %), 10 of 10 pairs, counts equal again
	// (DESIGN.md §7.1, EXPERIMENTS.md).
	proj preference.Lanes
}

// sharedNode keeps its window sorted ascending by the monotone coordinate
// sum: a point can only be weakly dominated by entries with sum ≤ its own
// and can only dominate entries with sum ≥ its own, so each insert scans a
// prefix for dominators and a suffix for evictions — the SFS presorting
// idea applied incrementally inside the shared plan. The prefix scan finds
// its own end (the first entry with a larger sum); only member lookups
// (find, and an insert of a payload that may already be a member)
// binary-search the sum key.
type sharedNode struct {
	node      *Node
	idx       int    // position in SharedSkyline.nodes (bit index of the masks)
	childMask uint64 // bitmask over the node indices of the cuboid children
	sub       preference.Subspace
	kern      preference.Kernel
	qserve    QSet
	window    []sharedEntry // by value, sum-ascending; entries move when it shifts
	dead      int           // window entries with alive == 0 awaiting compaction
	children  []*sharedNode
}

// find returns the live window entry of payload at sn, or nil. Arena slots
// are write-once while a point is live, so the entry's sort key is
// recomputable from the arena and the entry can only sit in the window's run
// of that exact sum (liveInRun).
func (s *SharedSkyline) find(sn *sharedNode, payload int) *sharedEntry {
	if payload < 0 || s.useMasks && (payload>>maskShift >= len(s.masks) || s.mask(payload).member&(1<<uint(sn.idx)) == 0) {
		return nil
	}
	vals := s.PointVals(payload)
	if vals == nil {
		return nil
	}
	return liveInRun(sn, payload, sn.kern.Sum(vals))
}

// liveInRun returns the live entry of payload in sn's run of entries with
// sum sp, or nil: one binary search plus a walk over the ties. Dead entries
// of the same payload (killed, not yet compacted) are passed over.
func liveInRun(sn *sharedNode, payload int, sp float64) *sharedEntry {
	window := sn.window
	i := sort.Search(len(window), func(i int) bool { return window[i].sum >= sp })
	for ; i < len(window) && window[i].sum == sp; i++ {
		if w := &window[i]; int(w.payload) == payload && w.alive != 0 {
			return w
		}
	}
	return nil
}

// windowPresize is the initial window capacity of every node.
const windowPresize = 16

// compactionSlack is the minimum number of dead window entries before a
// node's window is batch-compacted (and then only once the dead entries are
// at least half the window). Compaction is invisible to every observable:
// dead entries are already skipped, uncounted, by all scans.
const compactionSlack = 16

// NewSharedSkyline creates the execution state for a cuboid. The clock may
// be nil (no accounting).
func NewSharedSkyline(c *Cuboid, clock *metrics.Clock) *SharedSkyline {
	s := &SharedSkyline{
		cuboid:   c,
		clock:    clock,
		prefSN:   make([]*sharedNode, c.NumQueries()),
		useMasks: len(c.Nodes) <= 64,
	}
	byNode := make(map[*Node]*sharedNode, len(c.Nodes))
	for i, n := range c.Nodes {
		sn := &sharedNode{
			node: n, idx: i, sub: n.Sub, kern: preference.NewKernel(n.Sub),
			qserve: n.QServe, window: make([]sharedEntry, 0, windowPresize),
		}
		s.nodes = append(s.nodes, sn)
		byNode[n] = sn
	}
	for _, sn := range s.nodes {
		for _, ch := range sn.node.Children {
			csn := byNode[ch]
			sn.children = append(sn.children, csn)
			if s.useMasks {
				sn.childMask |= 1 << uint(csn.idx)
			}
		}
	}
	for i := 0; i < c.NumQueries(); i++ {
		s.prefSN[i] = byNode[c.PreferenceNode(i)]
	}
	if clock != nil {
		clock.CountCuboidSubspace(int64(len(s.nodes)))
	}
	return s
}

// Cuboid returns the plan this state executes.
func (s *SharedSkyline) Cuboid() *Cuboid { return s.cuboid }

// growMasks ensures the per-payload bitmasks cover payload.
func (s *SharedSkyline) growMasks(payload int) {
	for payload>>maskShift >= len(s.masks) {
		s.masks = append(s.masks, new([maskChunk]payloadMasks))
	}
}

// Insert adds a point with the given unique payload identifier and query
// lineage. It returns the set of queries for which the point is currently a
// skyline candidate (zero if immediately dominated everywhere). The
// coordinates are copied into the shared arena; the caller keeps vals.
// A payload outside [0, MaxInt32] (an entry's int32) is a caller bug: panic.
func (s *SharedSkyline) Insert(payload int, vals []float64, lineage QSet) QSet {
	if payload < 0 || payload > math.MaxInt32 {
		panic(fmt.Sprintf("skycube: Insert payload %d outside [0, %d]", payload, math.MaxInt32))
	}
	if s.points == nil {
		s.points = preference.NewFlatPoints(len(vals))
	}
	s.points.Set(payload, vals)
	if s.useMasks {
		s.growMasks(payload)
	}
	var out QSet
	for _, sn := range s.nodes {
		relevant := sn.qserve & lineage
		if relevant == 0 {
			continue
		}
		// Candidacy is read at the full-preference node of each query
		// (prefSN covers the cuboid's queries plus any added dynamically).
		alive := s.insertAt(sn, payload, vals, relevant)
		for i := alive.Next(0); i >= 0; i = alive.Next(i + 1) {
			if s.prefSN[i] == sn {
				out = out.Add(i)
			}
		}
	}
	return out
}

// Resettle judges an already-inserted point afresh under lineage, at every
// node serving it: where the point is a live member its entry is replaced,
// where it is not it is offered again. It is how a caller repairs what Remove
// may have invalidated, and how a member's lineage grows (Insert leaves a
// live member alone). It returns the queries the point is a candidate for
// now and those it was one for before.
func (s *SharedSkyline) Resettle(payload int, lineage QSet) (now, was QSet) {
	vals := s.points.At(payload)
	s.replacing = true
	for _, sn := range s.nodes {
		relevant := sn.qserve & lineage
		if relevant == 0 {
			continue
		}
		s.replaced = 0
		alive := s.insertAt(sn, payload, vals, relevant)
		either := alive | s.replaced
		for i := either.Next(0); i >= 0; i = either.Next(i + 1) {
			if s.prefSN[i] == sn {
				bit := QSet(0).Add(i)
				now |= alive & bit
				was |= s.replaced & bit
			}
		}
	}
	s.replacing = false
	return now, was
}

// insertAt performs the windowed insert of one point at one node and
// returns the queries the point is alive for there (zero: dominated, not
// inserted). A point that already is a live member is left alone — unless
// Resettle is replacing: then the entry dies, its alive set is left in
// s.replaced, and the point is judged afresh under relevant.
//
// Entries with sum ≤ sp are the dominator candidates and entries with
// sum ≥ sp the eviction candidates (equal sums are in both). The prefix scan
// walks the window from its start and stops at the first larger sum, so it
// finds the end of the prefix itself; a point dominated for every query
// returns from inside it without ever locating its own slot, and one that
// survives finds the start of the run of equal sums by walking back over it
// — ties are rare. A live entry of the payload can only sit in that run, and
// only a payload whose member bit is set (or any, without the masks) can
// have one, so only those look it up before the scan, as find does.
func (s *SharedSkyline) insertAt(sn *sharedNode, payload int, vals []float64, relevant QSet) QSet {
	sp := sn.kern.Sum(vals)
	// Subspaces of ≥ 5 dimensions do not fit the lanes: the kernel path.
	var p preference.Lanes
	fast := sn.kern.Project(vals, &p)
	bit := uint64(1) << uint(sn.idx)
	var pm *payloadMasks // the payload's masks, loaded once, nil without them
	if s.useMasks {
		pm = s.mask(payload)
	}
	if pm == nil || pm.member&bit != 0 {
		if w := liveInRun(sn, payload, sp); w != nil {
			if !s.replacing {
				return w.alive
			}
			// The dead slot sits in the tie run: the suffix scan below
			// reclaims it, a later compaction otherwise.
			s.replaced, w.alive = w.alive, 0
			s.clearMasks(sn, payload)
			sn.dead++
		}
	}

	aliveP := relevant
	cleanP := true
	var cmpCount int64

	// Hoist the incoming point's halves of the child-protection masks (its bits
	// change only after both scans): a window entry costs one payload-indexed
	// load, and none while the hoisted half is zero, the usual case at the top.
	var pCleanChildren, pMemberChildren uint64
	if pm != nil {
		pCleanChildren = pm.clean & sn.childMask
		pMemberChildren = pm.member & sn.childMask
	}

	// Prefix scan: can some member dominate p? The reverse direction is
	// only consulted when the forward one holds, so it is computed lazily.
	hiIdx := len(sn.window)
	for i := range sn.window {
		w := &sn.window[i]
		if w.sum > sp {
			hiIdx = i
			break
		}
		if w.alive == 0 || w.lineage&relevant == 0 {
			continue // dead, or disjoint lineages never interact
		}
		if s.useMasks {
			if pCleanChildren != 0 && pCleanChildren&s.mask(int(w.payload)).member != 0 {
				continue // w provably cannot weakly dominate p here
			}
		} else if s.childProtects(sn, payload, int(w.payload)) {
			continue
		}
		cmpCount++
		var wWeakP, pWeakW bool
		if fast {
			wWeakP = preference.WeakLanes(&w.proj, &p)
			if wWeakP {
				pWeakW = preference.WeakLanes(&p, &w.proj)
			}
		} else {
			wWeakP, pWeakW = sn.kern.Relate(s.points.At(int(w.payload)), vals)
		}
		if wWeakP {
			cleanP = false
			if !pWeakW { // strict: w ≺ p
				aliveP &^= w.lineage
				if aliveP == 0 {
					break
				}
			}
		}
	}

	if aliveP == 0 {
		// p is dominated for every query it serves. Any member p would
		// evict is already evicted by p's dominators (transitivity), so the
		// suffix scan can be skipped entirely.
		if s.clock != nil && cmpCount > 0 {
			s.clock.CountSkylineCmp(cmpCount)
		}
		return 0
	}
	lowIdx := hiIdx
	for lowIdx > 0 && sn.window[lowIdx-1].sum == sp {
		lowIdx--
	}

	// Suffix scan: which members does p dominate? Dead entries encountered
	// here are compacted away for free. Survivors move down only once a removal
	// has actually happened — the common no-eviction scan writes no slot.
	keepLen := lowIdx
	pos := -1 // insertion slot for p: keepLen when the scan crosses hiIdx
	for idx := lowIdx; idx < len(sn.window); idx++ {
		if idx == hiIdx {
			pos = keepLen
		}
		w := &sn.window[idx]
		if w.alive == 0 {
			sn.dead--
			continue
		}
		drop := false
		if w.lineage&relevant != 0 {
			protected := false
			if s.useMasks {
				protected = pMemberChildren != 0 && s.mask(int(w.payload)).clean&pMemberChildren != 0
			} else {
				protected = s.childProtects(sn, int(w.payload), payload)
			}
			if !protected {
				cmpCount++
				var pWeakW, wWeakP bool
				if fast {
					pWeakW = preference.WeakLanes(&p, &w.proj)
					if pWeakW {
						wWeakP = preference.WeakLanes(&w.proj, &p)
					}
				} else {
					pWeakW, wWeakP = sn.kern.Relate(vals, s.points.At(int(w.payload)))
				}
				if wWeakP && pWeakW { // equal in the subspace (sum tie)
					cleanP = false
				}
				if pWeakW {
					if w.clean {
						w.clean = false
						if s.useMasks {
							s.mask(int(w.payload)).clean &^= 1 << uint(sn.idx)
						}
					}
					if !wWeakP { // strict: p ≺ w
						w.alive &^= relevant
						if w.alive == 0 {
							s.clearMasks(sn, int(w.payload))
							drop = true // remove w from the window
						}
					}
				}
			}
		}
		if drop {
			continue
		}
		if keepLen != idx {
			sn.window[keepLen] = *w
		}
		keepLen++
	}
	sn.window = sn.window[:keepLen]
	if pos < 0 {
		pos = keepLen // every survivor has sum ≤ sp
	}
	if s.clock != nil && cmpCount > 0 {
		s.clock.CountSkylineCmp(cmpCount)
	}

	// Insert p at its sorted position (end of its equal-sum run within the
	// kept prefix; lowIdx..hiIdx survivors precede it).
	sn.window = append(sn.window, sharedEntry{})
	copy(sn.window[pos+1:], sn.window[pos:])
	sn.window[pos] = sharedEntry{payload: int32(payload), sum: sp, lineage: relevant, alive: aliveP, clean: cleanP, proj: p}
	if pm != nil {
		pm.member |= bit
		if cleanP {
			pm.clean |= bit
		} else {
			pm.clean &^= bit
		}
	}
	return aliveP
}

// clearMasks drops payload's member and clean bits for node sn, if masks
// are maintained.
func (s *SharedSkyline) clearMasks(sn *sharedNode, payload int) {
	if !s.useMasks {
		return
	}
	bit := uint64(1) << uint(sn.idx)
	pm := s.mask(payload)
	pm.member &^= bit
	pm.clean &^= bit
}

// childProtects reports whether some cuboid child of sn's node contains both
// points as current members with the protected point clean there, which
// proves the attacker cannot dominate the protected point in sn's subspace.
// It is the protection test of plans too large for the payload masks.
func (s *SharedSkyline) childProtects(sn *sharedNode, protectedID, attackerID int) bool {
	for _, cn := range sn.children {
		pe := s.find(cn, protectedID)
		if pe == nil || !pe.clean {
			continue
		}
		if s.find(cn, attackerID) != nil {
			return true
		}
	}
	return false
}

// KillForQueries removes candidacy of a point for the given queries across
// all nodes (used when region-level knowledge invalidates join results that
// were already inserted). Points with no remaining alive bits are marked
// dead immediately — every scan skips them from then on — and their window
// slots are reclaimed in batched compaction passes rather than spliced one
// at a time.
func (s *SharedSkyline) KillForQueries(payload int, dead QSet) {
	for _, sn := range s.nodes {
		e := s.find(sn, payload)
		if e == nil {
			continue
		}
		e.alive &^= dead
		if e.alive == 0 {
			s.bury(sn, payload)
		}
	}
}

// bury retires the window entry of payload at sn that just lost its last
// alive bit outside a scan: its mask bits go, and its slot waits for the
// node's next batched compaction.
func (s *SharedSkyline) bury(sn *sharedNode, payload int) {
	s.clearMasks(sn, payload)
	sn.dead++
	if sn.dead >= compactionSlack && sn.dead*2 >= len(sn.window) {
		compact(sn)
	}
}

// Removed is one live window entry Remove took out: the point, the
// comparator of the node it sat at and the queries it was still alive for
// there — what a caller needs to find the points that rested on it.
type Removed struct {
	Point []float64 // view into the arena, never rewritten
	Kern  preference.Kernel
	Alive QSet
}

// Remove takes a point out of every window it is a live member of, whichever
// query the window serves, appending one Removed per such node to dst. It is
// the base-table delete primitive.
//
// Taking an entry out is safe for the entries that stay: their alive sets were
// decided by comparisons that did happen, their clean flags only err towards
// "not clean", and the protection proof reads member bits of points that are
// both present. What it can invalidate is the absence of points the entry
// dominated, and only where it was still alive: for a query it had lost, the
// entry that evicted it dominates everything it dominated (transitivity of
// strict dominance in the node's subspace) and stands in for it. The caller
// finds those points and Resettles them.
func (s *SharedSkyline) Remove(payload int, dst []Removed) []Removed {
	for _, sn := range s.nodes {
		e := s.find(sn, payload)
		if e == nil {
			continue
		}
		dst = append(dst, Removed{Point: s.points.At(payload), Kern: sn.kern, Alive: e.alive})
		e.alive = 0
		s.bury(sn, payload)
	}
	return dst
}

// compact rewrites a node's window in place without its dead entries,
// preserving the order of the live ones.
func compact(sn *sharedNode) {
	keep := sn.window[:0]
	for i := range sn.window {
		if sn.window[i].alive != 0 {
			keep = append(keep, sn.window[i])
		}
	}
	sn.window = keep
	sn.dead = 0
}

// Candidates returns the payloads currently alive for query qi at its full
// preference node, in ascending payload order (deterministic).
func (s *SharedSkyline) Candidates(qi int) []int {
	sn := s.prefSN[qi]
	var out []int
	for i := range sn.window {
		if e := &sn.window[i]; e.alive.Has(qi) {
			out = append(out, int(e.payload))
		}
	}
	sort.Ints(out)
	return out
}

// IsCandidate reports whether a point is currently alive for query qi.
func (s *SharedSkyline) IsCandidate(payload, qi int) bool {
	e := s.find(s.prefSN[qi], payload)
	return e != nil && e.alive.Has(qi)
}

// PointVals returns the stored coordinates of an inserted point (a view
// into the shared arena, immutable once read), or nil for payloads outside
// the arena.
func (s *SharedSkyline) PointVals(payload int) []float64 {
	if s.points != nil && payload >= 0 && payload < s.points.Len() {
		return s.points.At(payload)
	}
	return nil
}

// WindowSize returns the current number of live window entries at the
// full-preference node of query qi (for diagnostics and tests).
func (s *SharedSkyline) WindowSize(qi int) int {
	sn := s.prefSN[qi]
	return len(sn.window) - sn.dead
}
