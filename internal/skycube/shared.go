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
// cache line each, in blocks of at most 32 (window.go), so a scan walks
// contiguous memory and compares entry-local projections (sharedEntry.proj);
// the blocks' heads (bounds, count, last key) are values in one slice too,
// so the block tests and the binary seek walk contiguous memory and reach
// a block's entries only to scan them; and the child-protection test is a
// 3-way AND over payload-indexed node bitmasks (a node past the 64th has no
// bit and protects nothing, which costs comparisons only: nodeBit). Nothing
// is kept per (node, payload): a node knows its members only through its
// window (see find), so standing state is the windows plus a few
// pointer-free words per join result.
// Entries killed by KillForQueries are marked dead and batch-compacted
// instead of spliced one at a time. None of this changes a candidate set:
// dead entries are skipped without accounting, exactly as if they had been
// removed eagerly.
//
// Payloads must be small non-negative integers (the engine assigns them
// sequentially): they index the arena and the masks; Insert states the range.
type SharedSkyline struct {
	cuboid *Cuboid
	clock  *metrics.Clock
	nodes  []*sharedNode          // aligned with cuboid.Nodes (ascending level)
	prefSN []*sharedNode          // query index -> node of its full preference
	points *preference.FlatPoints // payload-indexed coordinate arena (created at first Insert)

	// The window-key grid per output dimension (quantum): values from zlo
	// on, zscale quanta per unit. zs holds
	// the point being placed, spread (spreadDims), for insertAt's key.
	zlo, zscale []float64
	zs          []uint64
	spare       []*[blockCap]sharedEntry // entry storage no block holds, for the next split

	// freeNodes holds dedicated dynamic-query nodes whose query retired;
	// SetDynamicQuery re-keys one of these before appending a fresh node, so
	// long sessions with query turnover keep the node count bounded (and
	// their nodes within the 64 that have a mask bit). Only dynamic nodes are
	// ever recycled: cuboid nodes are lattice children of other nodes and
	// must keep their subspace.
	freeNodes []*sharedNode

	// Per-payload bitmasks over node indices: bit nodeBit(sn) for each node,
	// none for a node past the 64th. Fixed-size chunks, so covering one more
	// payload never copies.
	masks []*[maskChunk]payloadMasks

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
// clean flag. Only nodes 0–63 have a bit (nodeBit). cand is indexed by
// query, not node: bit q ⇔ the payload's entry at prefSN[q] is live and
// alive for q — IsCandidate in one load. Every write of an alive set keeps
// it: clearMasks drops the node's prefQ where an entry dies, and insertAt,
// evictMasked, KillForQueries and RetireQuery adjust it where an alive set
// changes otherwise.
type payloadMasks struct {
	member, clean uint64
	cand          QSet
}

// nodeBit is sn's bit in the payload masks, zero for a node at index ≥ 64
// (a Go shift by ≥ 64 is 0). A zero bit is in no childMask, so such a node
// protects no pair in its parents; writing it is a no-op; and membership
// there is found by searching the window. Nodes are sorted by ascending
// level, so children have the smaller indices, and dynamic nodes, the only
// ones appended later, have no children: a plan past 64 nodes keeps nearly
// all of its protection.
func nodeBit(sn *sharedNode) uint64 { return uint64(1) << uint(sn.idx) }

const (
	maskShift = 12
	maskChunk = 1 << maskShift
)

func (s *SharedSkyline) mask(payload int) *payloadMasks { return maskAt(s.masks, payload) }

// maskAt is mask over a table a scan holds in a local.
func maskAt(masks []*[maskChunk]payloadMasks, payload int) *payloadMasks {
	return &masks[payload>>maskShift][payload&(maskChunk-1)]
}

// sharedEntry is one window slot, stored by value and exactly one cache line
// (TestSharedEntryIsOneCacheLine). Entries move when the window shifts: a
// *sharedEntry (find's result) is good only until that window's next mutation.
type sharedEntry struct {
	payload int32  // Insert guards the range
	clean   bool   // no compared point weakly dominates it in this subspace
	key     uint64 // Z-address of proj (zKey): the window's sort key
	lineage QSet   // immutable: queries this point competes for at this node
	alive   QSet   // queries for which the point is still a skyline candidate here

	// proj holds the point on the node's lanes (project): the whole
	// subspace for subspaces of at most 4 dimensions, where every scan of
	// insertAt and evictMasked compares entry-local fixed-size arrays under
	// preference.WeakLanes, inlined, so a comparison is no call. Subspaces
	// with ≥ 5 dimensions keep their first four here, for the key and the
	// block bounds, and compare through the kernel against the arena,
	// inlined as well.
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

// sharedNode keeps its window sorted ascending by the monotone Z-address of
// its entries' lanes (window.go): a point can only be weakly dominated by
// entries with a key ≤ its own and can only dominate entries with a key ≥
// its own, so each insert scans a prefix for dominators and a suffix for
// evictions — the SFS presorting idea applied incrementally inside the
// shared plan, with whole blocks ruled out by their bounds. A prefix scan
// that ends in block 0 finds its own end (the first entry with a larger
// key); one that goes on, the placement of a survivor and the member
// lookups (find, and an insert of a payload that may already be a member)
// binary-search the key (seek): over the heads' last keys, then within one
// block.
type sharedNode struct {
	node      *Node
	idx       int    // position in SharedSkyline.nodes (bit index of the masks)
	childMask uint64 // nodeBit of each cuboid child
	sub       preference.Subspace
	kern      preference.Kernel
	qserve    QSet
	prefQ     QSet    // the queries whose full-preference node this is (prefSN)
	blocks    []block // the window's heads: key-ascending, no block empty
	size      int     // window entries, dead ones included
	dead      int     // window entries with alive == 0 awaiting compaction
}

// find returns the live window entry of payload at sn, or nil. Arena slots
// are write-once while a point is live, so the entry's sort key is
// recomputable from the arena and the entry can only sit in the window's run
// of that exact key (liveInRun). A clear member bit answers without the
// search.
func (s *SharedSkyline) find(sn *sharedNode, payload int) *sharedEntry {
	if bit := nodeBit(sn); payload < 0 || bit != 0 && (payload>>maskShift >= len(s.masks) || s.mask(payload).member&bit == 0) {
		return nil
	}
	vals := s.PointVals(payload)
	if vals == nil {
		return nil
	}
	s.spreadLanes(sn, vals)
	return liveInRun(sn, payload, sn.zKey(s.zs))
}

// compactionSlack is the minimum number of dead window entries before a
// node's window is batch-compacted (and then only once the dead entries are
// at least half the window). Compaction changes no candidate set: dead
// entries are already skipped, uncounted, by all scans. It does repack the
// blocks, and with them the block tests later scans make.
const compactionSlack = 16

// NewSharedSkyline creates the execution state for a cuboid whose points
// lie in the unit box: NewSharedSkylineIn over [0, 1] in every dimension.
// The clock may be nil (no accounting).
func NewSharedSkyline(c *Cuboid, clock *metrics.Clock) *SharedSkyline {
	return NewSharedSkylineIn(c, clock, nil, nil)
}

// NewSharedSkylineIn creates the execution state for a cuboid whose points
// lie in the output-space box [lo, hi] (one bound per output dimension):
// window keys quantise each dimension linearly over it, and a value outside
// it, an appended row's, clamps to its edge. A dimension past lo, or one
// the box gives no extent, quantises over a unit interval from its lower
// bound. The clock may be nil.
func NewSharedSkylineIn(c *Cuboid, clock *metrics.Clock, lo, hi []float64) *SharedSkyline {
	s := &SharedSkyline{
		cuboid: c,
		clock:  clock,
		prefSN: make([]*sharedNode, c.NumQueries()),
		zlo:    append([]float64(nil), lo...),
		zscale: make([]float64, len(lo)),
	}
	for k := range s.zscale {
		s.zscale[k] = zTop + 1
		if ext := hi[k] - lo[k]; ext > 0 {
			s.zscale[k] /= ext
		}
	}
	byNode := make(map[*Node]*sharedNode, len(c.Nodes))
	for i, n := range c.Nodes {
		sn := &sharedNode{node: n, idx: i, sub: n.Sub, kern: preference.NewKernel(n.Sub), qserve: n.QServe}
		s.nodes = append(s.nodes, sn)
		byNode[n] = sn
	}
	for _, sn := range s.nodes {
		for _, ch := range sn.node.Children {
			sn.childMask |= nodeBit(byNode[ch])
		}
	}
	for i := 0; i < c.NumQueries(); i++ {
		s.prefSN[i] = byNode[c.PreferenceNode(i)]
		s.prefSN[i].prefQ = s.prefSN[i].prefQ.Add(i)
	}
	if clock != nil {
		clock.CountCuboidSubspace(int64(len(s.nodes)))
	}
	return s
}

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
	s.growMasks(payload)
	s.spreadDims(vals)
	var out QSet
	for _, sn := range s.nodes {
		relevant := sn.qserve & lineage
		if relevant == 0 {
			continue
		}
		// Candidacy is read at the full-preference node of each query
		// (prefQ covers the cuboid's queries plus any added dynamically).
		out |= s.insertAt(sn, payload, vals, relevant) & sn.prefQ
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
	s.spreadDims(vals)
	s.replacing = true
	for _, sn := range s.nodes {
		relevant := sn.qserve & lineage
		if relevant == 0 {
			continue
		}
		s.replaced = 0
		now |= s.insertAt(sn, payload, vals, relevant) & sn.prefQ
		was |= s.replaced & sn.prefQ
	}
	s.replacing = false
	return now, was
}

// insertAt performs the windowed insert of one point at one node and
// returns the queries the point is alive for there (zero: dominated, not
// inserted), reading the point's spread dimensions from s.zs, which the
// caller filled (spreadDims, or spreadLanes for sn alone). A point that
// already is a live member is left alone — unless
// Resettle is replacing: then the entry dies, its alive set is left in
// s.replaced, and the point is judged afresh under relevant.
//
// Entries with key ≤ zp are the dominator candidates and entries with
// key ≥ zp the eviction candidates (equal keys are in both). The prefix scan
// walks block 0 from its start: it holds the points small on every lane,
// which dominate most, and where the prefix ends inside it the walk stops
// at the first larger key, its end. Where the prefix goes on, the scan
// binary-searches its end and walks the other blocks back from there: on
// anti-correlated data p's dominators are its neighbours, which the
// Z-address keeps just before it. A point dominated for every query returns
// from inside the scan, most without a search. One that survives finds the
// start of the run of equal keys by walking back from the prefix's end —
// ties are rare. A live entry of the payload can only sit in that run, and
// only a payload whose member bit is set (or any, at a node with no bit) can
// have one, so only those look it up before the scan, as find does.
//
// A block wholly inside the prefix is first tested against its lower
// bounds, and one wholly inside the suffix against its upper bounds: a lane
// on which the block lies entirely beyond p rules out all its entries for
// one comparison. A block the run's end cuts is scanned entry by entry, and
// so are the first block of a window of fewer than firstBlockTest blocks in
// the prefix and the one block of a window that has only one in the suffix.
// Most of the blocks the prefix walks back over are ruled out, so that walk
// runs in the leaf mayDominate, over the heads alone, up to the next block
// it must scan.
//
// Neither scan calls anything in its loop over entries: Go does not unswitch
// loops, and a loop with a call re-reads on every entry what the call might
// have changed. The prefix scan of a subspace that fits the lanes runs in
// the leaf prefixLanes, called once per block it scans, which keeps what it
// reads in registers; a wider subspace's, through the kernel against the
// arena, runs here. The suffix scan runs in the leaf evictMasked (DESIGN
// §7.1).
// TestProtectionOnlySkipsComparisons holds both to a skyline with no
// protection.
func (s *SharedSkyline) insertAt(sn *sharedNode, payload int, vals []float64, relevant QSet) QSet {
	var p preference.Lanes
	sn.project(vals, &p)
	zp := sn.zKey(s.zs)
	// Subspaces of ≥ 5 dimensions do not fit the lanes: the kernel path.
	fast := sn.kern.FitsLanes()
	bit := nodeBit(sn)
	pm := s.mask(payload) // the payload's masks, loaded once
	if bit == 0 || pm.member&bit != 0 {
		if w := liveInRun(sn, payload, zp); w != nil {
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

	// Prefix scan: can some member dominate p? The reverse direction is
	// only consulted when the forward one holds, so it is computed lazily.
	// p's half of the protection test is hoisted (its bits change only after
	// both scans): an entry costs one payload-indexed load, and none while
	// the half is zero, the usual case at the top.
	hiB, hiE := len(sn.blocks), 0 // the first entry with a larger key, once found
	pCleanChildren := pm.clean & sn.childMask
	testFirst := len(sn.blocks) >= firstBlockTest
prefix:
	for k := 0; k < len(sn.blocks); k++ {
		// Block 0 front to back, where the prefix may end; then, if it
		// goes on, the other blocks from p's position back.
		bi, step, end := 0, 1, sn.blocks[0].n
		if k > 0 {
			if k == 1 {
				if hiB == 0 {
					break
				}
				hiB, hiE = sn.seek(zp, true)
			}
			if bi, step = min(hiB, len(sn.blocks)-1)+1-k, -1; bi == 0 {
				break
			}
			if bi == hiB {
				end = hiE
			} else {
				// bi and every block before it lie inside the prefix: pass
				// over those whose lower bounds rule out p's dominators.
				nbi, n := mayDominate(sn.blocks[:bi+1], &p)
				cmpCount += n
				if nbi == 0 {
					break
				}
				k += bi - nbi // the next k is the block below nbi
				bi, end = nbi, sn.blocks[nbi].n
			}
		}
		b := &sn.blocks[bi]
		if k == 0 && testFirst && b.last <= zp { // block 0 inside the prefix
			cmpCount++
			if !preference.WeakLanes(&b.lo, &p) {
				continue // no entry of b can weakly dominate p
			}
		}
		i := 0
		if step < 0 {
			i = end - 1
		}
		if fast {
			var n int64
			i, aliveP, cleanP, n = prefixLanes(b.e[:end], i, step, &p, zp, relevant, pCleanChildren, s.masks, aliveP, cleanP)
			cmpCount += n
			if aliveP == 0 {
				break
			}
			if i >= 0 && i < end { // the first entry with a larger key
				hiB, hiE = bi, i
				break
			}
			continue
		}
		for ; i >= 0 && i < end; i += step {
			w := &b.e[i]
			if w.key > zp {
				hiB, hiE = bi, i
				break prefix
			}
			if w.alive == 0 || w.lineage&relevant == 0 {
				continue // dead, or disjoint lineages never interact
			}
			if pCleanChildren != 0 && pCleanChildren&s.mask(int(w.payload)).member != 0 {
				continue // w provably cannot weakly dominate p here
			}
			cmpCount++
			wWeakP, pWeakW := sn.kern.Relate(s.points.At(int(w.payload)), vals)
			if wWeakP {
				cleanP = false
				if !pWeakW { // strict: w ≺ p
					aliveP &^= w.lineage
					if aliveP == 0 {
						break prefix
					}
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

	// Suffix scan: which members does p dominate?
	lowB, lowE := sn.tieStart(hiB, hiE, zp)
	cleanP, n := s.evictMasked(sn, &p, fast, vals, relevant, pm.member&sn.childMask, lowB, lowE, cleanP)
	cmpCount += n
	if s.clock != nil && cmpCount > 0 {
		s.clock.CountSkylineCmp(cmpCount)
	}

	// Insert p at its sorted position: after the survivors of its equal-key
	// run.
	s.place(sn, &sharedEntry{payload: int32(payload), key: zp, lineage: relevant, alive: aliveP, clean: cleanP, proj: p})
	pm.member |= bit
	pm.cand |= aliveP & sn.prefQ
	if cleanP {
		pm.clean |= bit
	} else {
		pm.clean &^= bit
	}
	return aliveP
}

// mayDominate returns the last block of blocks[1:] whose lower bounds
// allow an entry that weakly dominates p, or 0 if none does, and the block
// tests made: insertAt's walk back over whole blocks, as a leaf that reads
// only the heads.
func mayDominate(blocks []block, p *preference.Lanes) (int, int64) {
	for bi := len(blocks) - 1; bi > 0; bi-- {
		if preference.WeakLanes(&blocks[bi].lo, p) {
			return bi, int64(len(blocks) - bi)
		}
	}
	return 0, int64(len(blocks) - 1)
}

// prefixLanes is the lanes path of insertAt's prefix scan over one block's
// entries es, from i on in direction step: a leaf, so that nothing it reads
// is reloaded per entry. It returns where it stopped (outside es when it ran
// through, else at the first entry with a key > zp or where p's last alive
// query fell), p's alive set and clean flag, and the comparisons made.
func prefixLanes(es []sharedEntry, i, step int, p *preference.Lanes, zp uint64, relevant QSet, pCleanChildren uint64, masks []*[maskChunk]payloadMasks, aliveP QSet, cleanP bool) (int, QSet, bool, int64) {
	var cmps int64
	pl := *p // read from the frame: a register fewer for the loop
	for ; uint(i) < uint(len(es)); i += step {
		w := &es[i]
		if w.key > zp {
			break
		}
		if w.alive == 0 || w.lineage&relevant == 0 {
			continue // dead, or disjoint lineages never interact
		}
		if pCleanChildren != 0 && pCleanChildren&maskAt(masks, int(w.payload)).member != 0 {
			continue // w provably cannot weakly dominate p here
		}
		cmps++
		if preference.WeakLanes(&w.proj, &pl) {
			cleanP = false
			if !preference.WeakLanes(&pl, &w.proj) { // strict: w ≺ p
				aliveP &^= w.lineage
				if aliveP == 0 {
					break
				}
			}
		}
	}
	return i, aliveP, cleanP, cmps
}

// evictMasked is insertAt's suffix scan: which members from position
// (bi, ei) on does p dominate? pMemberChildren is p's member half of the
// protection test. Dead entries met here are compacted away for free, and
// survivors move down within their block only once a removal has actually
// happened — the common no-eviction scan writes no slot. A block that
// loses entries gets its bounds recomputed, and one left empty becomes a
// spare. An evicted member loses its mask bits, a member p weakly
// dominates its clean bit, a member p strictly dominates its candidacy for
// the relevant queries this node is the preference node of. It returns p's
// clean flag and the comparisons made.
func (s *SharedSkyline) evictMasked(sn *sharedNode, p *preference.Lanes, fast bool, vals []float64, relevant QSet, pMemberChildren uint64, bi, ei int, cleanP bool) (clean bool, cmps int64) {
	blocks, masks := sn.blocks, s.masks
	bit := nodeBit(sn)
	candDrop := relevant & sn.prefQ
	keep, dead, gone := bi, 0, 0
	for ; bi < len(blocks); bi, ei = bi+1, 0 {
		b := &blocks[bi]
		if ei == 0 && len(blocks) > 1 {
			cmps++
			if !preference.WeakLanes(p, &b.hi) { // p weakly dominates no entry of b
				if keep != bi {
					blocks[keep] = *b
				}
				keep++
				continue
			}
		}
		es := b.e[:b.n]
		n := ei
		for i := ei; i < len(es); i++ {
			w := &es[i]
			if w.alive == 0 {
				dead++
				continue
			}
			if w.lineage&relevant != 0 && (pMemberChildren == 0 || maskAt(masks, int(w.payload)).clean&pMemberChildren == 0) {
				cmps++
				var pWeakW, wWeakP bool
				if fast {
					pWeakW = preference.WeakLanes(p, &w.proj)
					if pWeakW {
						wWeakP = preference.WeakLanes(&w.proj, p)
					}
				} else {
					pWeakW, wWeakP = sn.kern.Relate(vals, s.points.At(int(w.payload)))
				}
				if wWeakP && pWeakW { // equal in the subspace
					cleanP = false
				}
				if pWeakW {
					if w.clean {
						w.clean = false
						maskAt(masks, int(w.payload)).clean &^= bit
					}
					if !wWeakP { // strict: p ≺ w
						w.alive &^= relevant
						if candDrop != 0 {
							maskAt(masks, int(w.payload)).cand &^= candDrop
						}
						if w.alive == 0 {
							wm := maskAt(masks, int(w.payload))
							wm.member &^= bit
							wm.clean &^= bit
							continue // evicted: w leaves the window
						}
					}
				}
			}
			if n != i {
				es[n] = *w
			}
			n++
		}
		if n == len(es) {
			if keep != bi {
				blocks[keep] = *b
			}
			keep++
			continue
		}
		gone += len(es) - n
		b.n = n
		if n == 0 {
			s.spare = append(s.spare, b.e)
			continue
		}
		b.bound()
		if keep != bi {
			blocks[keep] = *b
		}
		keep++
	}
	clear(blocks[keep:])
	sn.blocks = blocks[:keep]
	sn.size -= gone
	sn.dead -= dead
	return cleanP, cmps
}

// clearMasks drops payload's member and clean bits for node sn, and its
// candidacy for the queries sn is the preference node of: the entry died.
func (s *SharedSkyline) clearMasks(sn *sharedNode, payload int) {
	bit := nodeBit(sn)
	pm := s.mask(payload)
	pm.member &^= bit
	pm.clean &^= bit
	pm.cand &^= sn.prefQ
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
		s.mask(payload).cand &^= dead & sn.prefQ
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
	if sn.dead >= compactionSlack && sn.dead*2 >= sn.size {
		s.compact(sn)
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

// Candidates returns the payloads currently alive for query qi at its full
// preference node, in ascending payload order (deterministic).
func (s *SharedSkyline) Candidates(qi int) []int {
	sn := s.prefSN[qi]
	var out []int
	for _, b := range sn.blocks {
		for i := range b.e[:b.n] {
			if e := &b.e[i]; e.alive.Has(qi) {
				out = append(out, int(e.payload))
			}
		}
	}
	sort.Ints(out)
	return out
}

// IsCandidate reports whether a point is currently alive for query qi: its
// cand bit, with no window search.
func (s *SharedSkyline) IsCandidate(payload, qi int) bool {
	return payload >= 0 && payload>>maskShift < len(s.masks) && s.mask(payload).cand.Has(qi)
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
