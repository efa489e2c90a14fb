package skycube

import (
	"fmt"

	"caqe/internal/preference"
)

// AddDynamicQuery extends a live shared skyline with one more query — the
// skycube half of mid-run query admission. The new query gets a dedicated
// window node over its full preference, appended after the cuboid's nodes.
//
// The dynamic node deliberately takes no part in the min-max cuboid's
// comparison sharing: it has no children (every insert pays its full
// windowed SFS scan there) and no existing node adopts it as a child. The
// child-protection proof of insertAt requires that two interacting points
// were already compared at a shared child node, which only holds along the
// lattice links established when the plan was built — linking a late node
// into them could skip comparisons that never happened. Forgoing sharing
// for late arrivals is the admission cost; correctness is untouched.
//
// The caller must assign query indices densely: the new query's index is
// the returned value, always the current query count. Subsequent Insert
// calls whose lineage carries the new bit populate the node; existing
// points are seeded one at a time with InsertForQuery.
func (s *SharedSkyline) AddDynamicQuery(pref preference.Subspace) (int, error) {
	qi := len(s.prefSN)
	if qi >= 64 {
		return -1, fmt.Errorf("skycube: query %d exceeds the 64-query limit", qi)
	}
	if len(pref) == 0 {
		return -1, fmt.Errorf("skycube: dynamic query with empty preference")
	}
	s.prefSN = append(s.prefSN, s.bindDynamic(nil, qi, pref))
	return qi, nil
}

// bindDynamic keys a dedicated node — sn, or a fresh one appended to the
// plan when sn is nil — to query qi over pref. The node compares in its own
// copy of the preference: the kernel reads its subspace on every comparison,
// so it must not alias a slice the caller may still write.
func (s *SharedSkyline) bindDynamic(sn *sharedNode, qi int, pref preference.Subspace) *sharedNode {
	if sn == nil {
		sn = &sharedNode{idx: len(s.nodes)}
		s.nodes = append(s.nodes, sn)
	}
	sn.sub = append(preference.Subspace(nil), pref...)
	sn.kern = preference.NewKernel(sn.sub)
	sn.qserve = QSet(0).Add(qi)
	sn.prefQ = sn.qserve
	if s.clock != nil {
		s.clock.CountCuboidSubspace(1)
	}
	return sn
}

// InsertForQuery seeds one already-inserted point into the dedicated node
// of a dynamically added query, reading its coordinates back from the
// shared arena. It reports whether the point is a skyline candidate for
// the query after the insert (false if dominated by previously seeded
// points — and seeding may in turn evict earlier seeds). Comparisons are
// counted: admission performs real work on the virtual clock.
func (s *SharedSkyline) InsertForQuery(payload, qi int) bool {
	vals := s.PointVals(payload)
	if vals == nil {
		return false
	}
	sn := s.prefSN[qi]
	s.spreadLanes(sn, vals)
	return s.insertAt(sn, payload, vals, QSet(0).Add(qi)).Has(qi)
}

// RetireQuery scrubs every trace of query qi from the shared skyline so its
// bit position can be handed to a new query (SetDynamicQuery): the engine
// half of lifting the session-lifetime query cap. At every node serving qi
// the bit is cleared from the node's QServe set, from each window entry's
// lineage and alive sets and from its payload's cand word — a stale lineage
// bit would otherwise let old points interact with the slot's next
// occupant, a stale cand bit make them its candidates. A node left serving no
// query at all is reset wholesale and, if it is a dedicated dynamic node,
// recycled through the node freelist.
//
// The caller guarantees the query is finished (cancelled or drained);
// results it already received are untouched — they live in the report, not
// here.
func (s *SharedSkyline) RetireQuery(qi int) {
	if qi < 0 || qi >= len(s.prefSN) {
		return
	}
	bit := QSet(0).Add(qi)
	ncuboid := len(s.cuboid.Nodes)
	for _, sn := range s.nodes {
		if !sn.qserve.Has(qi) {
			continue
		}
		sn.qserve &^= bit
		if sn.qserve == 0 {
			s.resetNode(sn)
			if sn.idx >= ncuboid {
				s.freeNodes = append(s.freeNodes, sn)
			}
			continue
		}
		// Shared cuboid node: scrub the bit entry by entry. Entries dead for
		// all remaining queries are retired exactly like KillForQueries does.
		for _, b := range sn.blocks {
			for i := range b.e[:b.n] {
				e := &b.e[i]
				if e.alive == 0 {
					continue
				}
				e.lineage &^= bit
				e.alive &^= bit
				s.mask(int(e.payload)).cand &^= bit
				if e.alive == 0 {
					s.clearMasks(sn, int(e.payload))
					sn.dead++
				}
			}
		}
		if sn.dead >= compactionSlack && sn.dead*2 >= sn.size {
			s.compact(sn)
		}
	}
	s.prefSN[qi].prefQ &^= bit
	s.prefSN[qi] = nil
}

// resetNode empties a node: its blocks' storage becomes spare, memberships and
// payload-mask bits are cleared. The node keeps its slot in s.nodes (masks
// and iteration stay index-stable) but holds no state.
func (s *SharedSkyline) resetNode(sn *sharedNode) {
	for _, b := range sn.blocks {
		for i := range b.e[:b.n] {
			if e := &b.e[i]; e.alive != 0 {
				s.clearMasks(sn, int(e.payload))
			}
		}
		s.spare = append(s.spare, b.e)
	}
	clear(sn.blocks)
	sn.blocks = sn.blocks[:0]
	sn.size, sn.dead = 0, 0
}

// SetDynamicQuery installs a new query at a previously retired bit position
// qi (the counterpart of AddDynamicQuery for slot reuse). The query gets a
// dedicated window node — a recycled one when a retired dynamic node is
// available, otherwise a fresh append — with the same no-sharing semantics
// as AddDynamicQuery. The slot must have been cleared by RetireQuery.
func (s *SharedSkyline) SetDynamicQuery(qi int, pref preference.Subspace) error {
	if qi < 0 || qi >= len(s.prefSN) {
		return fmt.Errorf("skycube: dynamic slot %d out of range [0,%d)", qi, len(s.prefSN))
	}
	if s.prefSN[qi] != nil {
		return fmt.Errorf("skycube: dynamic slot %d still serves a query", qi)
	}
	if len(pref) == 0 {
		return fmt.Errorf("skycube: dynamic query with empty preference")
	}
	var sn *sharedNode
	if n := len(s.freeNodes); n > 0 {
		sn = s.freeNodes[n-1]
		s.freeNodes = s.freeNodes[:n-1]
	}
	s.prefSN[qi] = s.bindDynamic(sn, qi, pref)
	return nil
}
