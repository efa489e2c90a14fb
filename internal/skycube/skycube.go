// Package skycube implements the subspace lattice of skyline dimensions
// (the "skycube" of Yuan et al.), the Q_Serve relation (Definition 6) and
// the paper's min-max cuboid shared plan structure (Definition 7, §4.1).
package skycube

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"caqe/internal/preference"
)

// QSet is a set of query indices represented as a bitmask. Workloads are
// limited to 64 queries, far above anything in the paper (|S_Q| ≤ 11).
type QSet uint64

// Has reports whether query i is in the set.
func (q QSet) Has(i int) bool { return q&(1<<uint(i)) != 0 }

// Add returns the set with query i added.
func (q QSet) Add(i int) QSet { return q | (1 << uint(i)) }

// Count returns the number of queries in the set.
func (q QSet) Count() int { return bits.OnesCount64(uint64(q)) }

// Next returns the smallest member index ≥ from, or -1 if none: the
// allocation-free counterpart of Queries for hot loops,
//
//	for qi := qs.Next(0); qi >= 0; qi = qs.Next(qi + 1) { ... }
func (q QSet) Next(from int) int {
	if from >= 64 {
		return -1
	}
	rest := uint64(q) >> uint(from)
	if rest == 0 {
		return -1
	}
	return from + bits.TrailingZeros64(rest)
}

// Queries returns the member indices in ascending order.
func (q QSet) Queries() []int {
	var out []int
	for i := 0; i < 64; i++ {
		if q.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// String renders the set as "{Q1,Q3}" using 1-based query numbers as in the
// paper's figures.
func (q QSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := 0; i < 64; i++ {
		if q.Has(i) {
			if !first {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "Q%d", i+1)
			first = false
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Node is one subspace of the shared plan with the queries it serves.
type Node struct {
	Sub    preference.Subspace
	QServe QSet
	Level  int // |Sub| - 1, so singletons are level 0 as in Figure 6

	// Children are the cuboid nodes whose subspace is a maximal proper
	// subset of this node's subspace (links within the min-max cuboid).
	Children []*Node
	// Parents are the inverse links.
	Parents []*Node
}

// Key returns the canonical subspace key of the node.
func (n *Node) Key() string { return n.Sub.Key() }

// Cuboid is the min-max-cuboid shared plan: the set of retained subspaces
// with lattice links, ordered by level.
type Cuboid struct {
	Nodes []*Node                      // ascending by level, then by subspace key
	byKey map[string]*Node             //
	prefs []preference.Subspace        // per-query full preference P_i
	prefN map[int]*Node                // query index -> node holding its full preference
	all   map[uint64]QSet              // every serving subspace mask -> QServe (the pruned skycube)
	dims  preference.Subspace          // union of all preference dimensions
	_     [0]func(map[string]struct{}) // make Cuboid incomparable
}

// QServeOf computes Definition 6 for an arbitrary subspace: the set of
// queries Q_i whose preference P_i is a superset of u.
func QServeOf(u preference.Subspace, prefs []preference.Subspace) QSet {
	var q QSet
	for i, p := range prefs {
		if u.IsSubsetOf(p) {
			q = q.Add(i)
		}
	}
	return q
}

// BuildCuboid constructs the min-max cuboid for a workload given the
// per-query skyline preferences P_1..P_n (Definition 7). The pruned skycube
// (all subspaces serving at least one query) is enumerated, then a subspace
// U is retained iff at least one of the following holds:
//
//  1. |U| = 1, or U serves more than one query;
//  2. there is no strict superset V (itself serving ≥ 1 query) with
//     QServe(U) ⊆ QServe(V);
//  3. U is the complete preference of some query.
func BuildCuboid(prefs []preference.Subspace) (*Cuboid, error) {
	if len(prefs) == 0 {
		return nil, fmt.Errorf("skycube: empty workload")
	}
	if len(prefs) > 64 {
		return nil, fmt.Errorf("skycube: workload of %d queries exceeds the 64-query limit", len(prefs))
	}
	for i, p := range prefs {
		if len(p) == 0 {
			return nil, fmt.Errorf("skycube: query %d has an empty skyline preference", i)
		}
	}

	// Enumerate the pruned skycube: every non-empty subset of every P_i.
	all := make(map[uint64]QSet)
	for i, p := range prefs {
		enumerateSubsets(p, func(mask uint64) {
			all[mask] = all[mask].Add(i)
		})
	}

	prefMask := make([]uint64, len(prefs))
	for i, p := range prefs {
		prefMask[i] = p.Mask()
	}

	c := &Cuboid{
		byKey: make(map[string]*Node),
		prefs: append([]preference.Subspace(nil), prefs...),
		prefN: make(map[int]*Node),
		all:   all,
	}
	var unionMask uint64
	for _, m := range prefMask {
		unionMask |= m
	}
	c.dims = preference.SubspaceFromMask(unionMask)

	for mask, qs := range all {
		if !retain(mask, qs, all, prefMask) {
			continue
		}
		sub := preference.SubspaceFromMask(mask)
		n := &Node{Sub: sub, QServe: qs, Level: len(sub) - 1}
		c.Nodes = append(c.Nodes, n)
		c.byKey[n.Key()] = n
	}
	sort.Slice(c.Nodes, func(i, j int) bool {
		if c.Nodes[i].Level != c.Nodes[j].Level {
			return c.Nodes[i].Level < c.Nodes[j].Level
		}
		return c.Nodes[i].Key() < c.Nodes[j].Key()
	})

	// Lattice links: child = maximal proper subset present in the cuboid.
	for _, n := range c.Nodes {
		nm := n.Sub.Mask()
		for _, m := range c.Nodes {
			if m == n {
				continue
			}
			mm := m.Sub.Mask()
			if mm&nm != mm || mm == nm {
				continue // not a proper subset
			}
			// m ⊂ n; keep only maximal such subsets.
			maximal := true
			for _, o := range c.Nodes {
				om := o.Sub.Mask()
				if o == m || o == n || om == mm || om == nm {
					continue
				}
				if mm&om == mm && om&nm == om { // m ⊂ o ⊂ n
					maximal = false
					break
				}
			}
			if maximal {
				n.Children = append(n.Children, m)
				m.Parents = append(m.Parents, n)
			}
		}
	}

	for i, p := range prefs {
		n, ok := c.byKey[p.Key()]
		if !ok {
			return nil, fmt.Errorf("skycube: internal error: preference %s of query %d missing from cuboid", p.Key(), i)
		}
		c.prefN[i] = n
	}
	return c, nil
}

// retain applies Definition 7 to one subspace.
func retain(mask uint64, qs QSet, all map[uint64]QSet, prefMask []uint64) bool {
	// Condition 1: singleton, or serves more than one query.
	if bits.OnesCount64(mask) == 1 || qs.Count() > 1 {
		return true
	}
	// Condition 3: full preference of some query.
	for _, pm := range prefMask {
		if pm == mask {
			return true
		}
	}
	// Condition 2: no strict superset serving a superset of its queries.
	for vm, vq := range all {
		if vm != mask && vm&mask == mask && qs&vq == qs {
			return false
		}
	}
	return true
}

// enumerateSubsets calls fn with the bitmask of every non-empty subset of p.
func enumerateSubsets(p preference.Subspace, fn func(mask uint64)) {
	full := p.Mask()
	for m := full; m != 0; m = (m - 1) & full {
		fn(m)
	}
}

// PreferenceNode returns the node holding query i's full preference.
func (c *Cuboid) PreferenceNode(i int) *Node { return c.prefN[i] }

// Dims returns the union of all preference dimensions (the workload's
// full space).
func (c *Cuboid) Dims() preference.Subspace { return c.dims }

// NumQueries returns the workload size.
func (c *Cuboid) NumQueries() int { return len(c.prefs) }

// SkycubeSize returns the number of subspaces in the pruned skycube (before
// min-max reduction); the full skycube of d dimensions has 2^d - 1.
func (c *Cuboid) SkycubeSize() int { return len(c.all) }

// ServingSubspaces returns every subspace mask of the pruned skycube and
// its QServe set; used by tests to verify Definition 7 against brute force.
func (c *Cuboid) ServingSubspaces() map[uint64]QSet {
	out := make(map[uint64]QSet, len(c.all))
	for k, v := range c.all {
		out[k] = v
	}
	return out
}

// String renders the cuboid by level, as in Figure 6.
func (c *Cuboid) String() string {
	var b strings.Builder
	level := -1
	for _, n := range c.Nodes {
		if n.Level != level {
			if level >= 0 {
				b.WriteByte('\n')
			}
			level = n.Level
			fmt.Fprintf(&b, "level %d:", level)
		}
		fmt.Fprintf(&b, "  [%s]%s", n.Key(), n.QServe)
	}
	return b.String()
}
