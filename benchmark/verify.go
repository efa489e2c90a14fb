package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"caqe"
	"caqe/internal/join"
)

// pairKey identifies one join result.
type pairKey struct{ rid, tid int }

// dominates reports a ≺ b on the given dimensions: no worse everywhere and
// strictly better somewhere (smaller is better). It is the checker's own
// definition, independent of the engine's dominance kernels.
func dominates(dims []int, a, b []float64) bool {
	strict := false
	for _, d := range dims {
		if a[d] > b[d] {
			return false
		}
		if a[d] < b[d] {
			strict = true
		}
	}
	return strict
}

// tuplesOf returns pointers to a relation's rows.
func tuplesOf(rel *caqe.Relation) []*caqe.Tuple {
	out := make([]*caqe.Tuple, len(rel.Tuples))
	for i := range rel.Tuples {
		out[i] = &rel.Tuples[i]
	}
	return out
}

// certify checks that got[qi] is exactly the skyline-over-join result set
// of query qi over (r, t), for every query, and returns one error per wrong
// query (nil entries for correct ones). Instead of recomputing each
// skyline it verifies a certificate, which is several times cheaper than
// caqe.GroundTruth and just as strict: S is the skyline of the join J iff
//
//  1. every member of S is a distinct pair of J with the right coordinates,
//  2. no member of S dominates another, and
//  3. every pair of J outside S is dominated by a member of S
//
// (if some j ∈ J dominated an s ∈ S, then j ∉ S by 2, so by 3 a member of
// S dominates j and, by transitivity, s — contradicting 2).
// TestCertifyAgreesWithGroundTruth pins it against caqe.GroundTruth.
func certify(w *caqe.Workload, r, t *caqe.Relation, got [][]caqe.Emission) []error {
	rs, ts := tuplesOf(r), tuplesOf(t)
	rByID := make(map[int]*caqe.Tuple, len(rs))
	for _, tp := range rs {
		rByID[tp.ID] = tp
	}
	tByID := make(map[int]*caqe.Tuple, len(ts))
	for _, tp := range ts {
		tByID[tp.ID] = tp
	}
	joined := map[int][]join.Result{}
	for _, q := range w.Queries {
		if _, ok := joined[q.JC]; !ok {
			joined[q.JC] = join.HashJoin(w.JoinConds[q.JC], w.OutDims, rs, ts, nil)
		}
	}

	errs := make([]error, len(w.Queries))
	certs := make([]*certificate, len(w.Queries))
	for qi, q := range w.Queries {
		certs[qi], errs[qi] = newCertificate(qi, q, w, rByID, tByID, got[qi])
	}

	// Conditions 2 and 3 are checked per slice of J, so that the work of a
	// query with a large skyline spreads over every core.
	const chunk = 8192
	type job struct{ qi, lo, hi int }
	jobs := make(chan job)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				c := certs[jb.qi]
				found, err := c.check(joined[w.Queries[jb.qi].JC][jb.lo:jb.hi])
				mu.Lock()
				c.found += found
				if err != nil && errs[jb.qi] == nil {
					errs[jb.qi] = err
				}
				mu.Unlock()
			}
		}()
	}
	for qi, q := range w.Queries {
		if errs[qi] != nil {
			continue
		}
		for lo, n := 0, len(joined[q.JC]); lo < n; lo += chunk {
			jobs <- job{qi, lo, min(lo+chunk, n)}
		}
	}
	close(jobs)
	wg.Wait()
	for qi, c := range certs {
		if errs[qi] == nil && c.found != len(c.pts) {
			errs[qi] = fmt.Errorf("query %d: %d results delivered, %d of them pairs of the join", qi, len(c.pts), c.found)
		}
	}
	return errs
}

// certificate is one query's delivered result set, prepared for checking
// against slices of the join.
type certificate struct {
	qi      int
	dims    []int
	members map[pairKey]bool
	maybe   []uint64 // one hashed bit per member: a cheap "not a member" test
	pts     [][]float64
	tree    *kdNode
	found   int // members met in the join so far
}

func pairHash(k pairKey) uint64 {
	x := uint64(k.rid)*0x9E3779B97F4A7C15 ^ uint64(k.tid)*0xC2B2AE3D27D4EB4F
	return x ^ x>>31
}

// newCertificate checks condition 1 and indexes the members.
func newCertificate(qi int, q caqe.Query, w *caqe.Workload, rByID, tByID map[int]*caqe.Tuple, got []caqe.Emission) (*certificate, error) {
	c := &certificate{qi: qi, dims: q.Pref, members: make(map[pairKey]bool, len(got))}
	bits := 64
	for bits < 16*len(got) {
		bits *= 2
	}
	c.maybe = make([]uint64, bits/64)
	jc := w.JoinConds[q.JC]
	for _, e := range got {
		k := pairKey{e.RID, e.TID}
		rt, tt := rByID[e.RID], tByID[e.TID]
		if rt == nil || tt == nil || !jc.Matches(rt, tt) {
			return c, fmt.Errorf("query %d: result (%d,%d) is not a join pair", qi, e.RID, e.TID)
		}
		if c.members[k] {
			return c, fmt.Errorf("query %d: result (%d,%d) delivered twice", qi, e.RID, e.TID)
		}
		want := join.Project(w.OutDims, rt, tt)
		if len(e.Out) != len(want) {
			return c, fmt.Errorf("query %d: result (%d,%d) has %d coordinates, want %d", qi, e.RID, e.TID, len(e.Out), len(want))
		}
		for d := range want {
			if e.Out[d] != want[d] {
				return c, fmt.Errorf("query %d: result (%d,%d) has coordinates %v, want %v", qi, e.RID, e.TID, e.Out, want)
			}
		}
		c.members[k] = true
		h := pairHash(k) % uint64(bits)
		c.maybe[h/64] |= 1 << (h % 64)
		c.pts = append(c.pts, want)
	}
	c.tree = buildKD(c.dims, append([][]float64(nil), c.pts...), 0)
	return c, nil
}

// check runs conditions 2 and 3 over one slice of the join and returns how
// many members it met: a member must not be dominated by any member, any
// other pair must be.
func (c *certificate) check(slice []join.Result) (found int, err error) {
	nbits := uint64(len(c.maybe) * 64)
	for _, jr := range slice {
		k := pairKey{jr.RID, jr.TID}
		h := pairHash(k) % nbits
		member := c.maybe[h/64]&(1<<(h%64)) != 0 && c.members[k]
		dominated := c.tree.dominates(c.dims, jr.Out)
		switch {
		case member && dominated:
			return found, fmt.Errorf("query %d: delivered (%d,%d) although another delivered result dominates it", c.qi, jr.RID, jr.TID)
		case !member && !dominated:
			return found, fmt.Errorf("query %d: skyline result (%d,%d) was never delivered", c.qi, jr.RID, jr.TID)
		case member:
			found++
		}
	}
	return found, nil
}

// kdNode is a k-d tree over a point set that answers one question: does
// any point of the set dominate q? Each node keeps the best corner of its
// subtree (the per-dimension minimum); a subtree whose best corner is worse
// than q somewhere cannot hold a dominator and is skipped.
type kdNode struct {
	best        []float64 // indexed like the points, set on dims only
	left, right *kdNode
	leaf        [][]float64
}

const kdLeaf = 8

func buildKD(dims []int, pts [][]float64, depth int) *kdNode {
	if len(pts) == 0 {
		return nil
	}
	n := &kdNode{best: append([]float64(nil), pts[0]...)}
	for _, p := range pts[1:] {
		for _, d := range dims {
			n.best[d] = min(n.best[d], p[d])
		}
	}
	if len(pts) <= kdLeaf {
		n.leaf = pts
		return n
	}
	d := dims[depth%len(dims)]
	sort.Slice(pts, func(a, b int) bool { return pts[a][d] < pts[b][d] })
	mid := len(pts) / 2
	n.left, n.right = buildKD(dims, pts[:mid], depth+1), buildKD(dims, pts[mid:], depth+1)
	return n
}

func (n *kdNode) dominates(dims []int, q []float64) bool {
	if n == nil {
		return false
	}
	for _, d := range dims {
		if n.best[d] > q[d] {
			return false
		}
	}
	for _, p := range n.leaf {
		if dominates(dims, p, q) {
			return true
		}
	}
	return n.left.dominates(dims, q) || n.right.dominates(dims, q)
}

// resultDigest is an order-independent fingerprint of a result set, used to
// check that repeated runs over the same input deliver the same set.
func resultDigest(ems []caqe.Emission) uint64 {
	var d uint64
	for _, e := range ems {
		d += pairHash(pairKey{e.RID, e.TID}) * 0xBF58476D1CE4E5B9
	}
	return d + uint64(len(ems))
}
