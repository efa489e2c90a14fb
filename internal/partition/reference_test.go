package partition

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"caqe/internal/metrics"
	"caqe/internal/tuple"
)

// refSignature is the map-based signature the sorted runs replaced.
type refSignature map[int64]struct{}

// referenceIntersects is the map-based Intersects: the smaller set's keys
// sorted, each probed in the larger set and charged, up to the first hit.
func referenceIntersects(s, o refSignature, clock *metrics.Clock) bool {
	small, large := s, o
	if len(large) < len(small) {
		small, large = large, small
	}
	for _, v := range small.run() {
		clock.CountCellOp(1)
		if _, ok := large[v]; ok {
			return true
		}
	}
	return false
}

// run returns the set's values ascending.
func (s refSignature) run() []int64 {
	keys := make([]int64, 0, len(s))
	for v := range s {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	return keys
}

func refOf(sig Signature) refSignature {
	m := refSignature{}
	for _, v := range sig {
		m[v] = struct{}{}
	}
	return m
}

// TestSignatureIntersectsMatchesReference holds the run-based Intersects to
// the map-based one it replaced, verdict and charge: random signatures over
// narrow and wide domains (extreme values among them), empty ones,
// equal-size pairs, disjoint pairs, and signatures grown by Insert, whose
// neighbours in the shared array must not move.
func TestSignatureIntersectsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	extremes := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	draw := func(domain int64) int64 {
		if rng.Intn(8) == 0 {
			return extremes[rng.Intn(len(extremes))]
		}
		return rng.Int63n(domain) - domain/2
	}
	build := func(n int, domain int64, f func(int64) bool) Signature {
		vals := make([]int64, 0, n)
		for len(vals) < n {
			if v := draw(domain); f == nil || f(v) {
				vals = append(vals, v)
			}
		}
		return NewSignature(vals)
	}
	var seen struct{ hits, misses, empty, equal, disjoint, inserted int }
	check := func(label string, a, b Signature) {
		t.Helper()
		for _, sw := range []bool{false, true} {
			x, y := a, b
			if sw {
				x, y = b, a
			}
			got, want := metrics.NewClock(), metrics.NewClock()
			hit := x.Intersects(y, got)
			if refHit := referenceIntersects(refOf(x), refOf(y), want); hit != refHit || got.Counters().CellOps != want.Counters().CellOps {
				t.Fatalf("%s: %v ∩ %v = %v charging %d, reference %v charging %d",
					label, x, y, hit, got.Counters().CellOps, refHit, want.Counters().CellOps)
			}
			if hit {
				seen.hits++
			} else {
				seen.misses++
			}
		}
	}
	for trial := range 3000 {
		domain := int64(4 + rng.Intn(60))
		if trial%5 == 0 {
			domain = 1 << 40
		}
		na, nb := rng.Intn(30), rng.Intn(30)
		switch trial % 4 {
		case 0:
			na = 0
			seen.empty++
		case 1:
			seen.equal++
		}
		a, b := build(na, domain, nil), build(nb, domain, nil)
		if trial%4 == 1 { // equal distinct counts
			m := min(len(a), len(b))
			a, b = a[:m:m], b[:m:m]
		}
		check(fmt.Sprintf("trial %d", trial), a, b)
		if trial%3 == 0 { // disjoint: even against odd values
			even := build(rng.Intn(30), domain, func(v int64) bool { return v%2 == 0 })
			odd := build(rng.Intn(30), domain, func(v int64) bool { return v%2 != 0 })
			check(fmt.Sprintf("trial %d disjoint", trial), even, odd)
			seen.disjoint++
		}
	}

	// Inserts into runs that share one array, as Partition lays them out.
	rel := testRelation(400, 2, 2, 55)
	cells, err := Partition(rel, DefaultOptions(rel.Len(), 16))
	if err != nil {
		t.Fatal(err)
	}
	for round := range 200 {
		c := cells[rng.Intn(len(cells))]
		k := rng.Intn(2)
		before := make([][]int64, 0, 2*len(cells))
		for _, o := range cells {
			for _, s := range o.Sigs {
				before = append(before, slices.Clone(s))
			}
		}
		ref := refOf(c.Sigs[k])
		v := draw(40)
		c.Sigs[k] = c.Sigs[k].Insert(v)
		ref[v] = struct{}{}
		seen.inserted++
		if !slices.Equal(c.Sigs[k], ref.run()) {
			t.Fatalf("round %d: insert %d gives %v, want the set %v", round, v, c.Sigs[k], ref)
		}
		j := 0
		for _, o := range cells {
			for ok, s := range o.Sigs {
				if (o != c || ok != k) && !slices.Equal(s, before[j]) {
					t.Fatalf("round %d: insert into cell %d key %d moved cell %d key %d", round, c.ID, k, o.ID, ok)
				}
				j++
			}
		}
		check(fmt.Sprintf("round %d", round), c.Sigs[k], cells[rng.Intn(len(cells))].Sigs[rng.Intn(2)])
	}
	if seen.hits < 1000 || seen.misses < 1000 {
		t.Fatalf("too little coverage: %+v", seen)
	}
	t.Logf("%+v", seen)
}

// referencePartition is the k-d split the index-array split replaced: each
// level copies its members and orders them by (attribute, ID) with a
// closure sort; each leaf builds its row lists and map signatures.
func referencePartition(rel *tuple.Relation, opt Options) []refCell {
	var members []*tuple.Tuple
	for i := range rel.Tuples {
		if tp := rel.At(i); opt.Keep == nil || opt.Keep[tp.ID] != 0 {
			members = append(members, tp)
		}
	}
	if len(members) == 0 {
		return nil
	}
	b := &refBuilder{numKeys: rel.Schema.NumKeys(), opt: opt, dims: rel.Schema.NumAttrs()}
	b.kdSplit(members, max(opt.TargetLeaves, 1), 0)
	return b.cells
}

type refCell struct {
	Lo, Hi []float64
	Tuples []*tuple.Tuple
	Rows   [][]*tuple.Tuple
	Sigs   []refSignature
}

type refBuilder struct {
	cells   []refCell
	numKeys int
	opt     Options
	dims    int
}

func (b *refBuilder) kdSplit(members []*tuple.Tuple, budget, depth int) {
	if len(members) == 0 {
		return
	}
	if budget <= 1 || len(members) <= b.opt.MaxLeafSize || len(members) < 2 || depth >= maxDepth {
		b.emit(members)
		return
	}
	lo, hi := refBounds(members, b.dims)
	dim, ext := 0, -1.0
	for k := 0; k < b.dims; k++ {
		if e := hi[k] - lo[k]; e > ext {
			dim, ext = k, e
		}
	}
	if ext <= 0 {
		b.emit(members)
		return
	}
	sorted := append([]*tuple.Tuple(nil), members...)
	slices.SortFunc(sorted, func(a, b *tuple.Tuple) int {
		if c := cmp.Compare(a.Attr(dim), b.Attr(dim)); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	mid := len(sorted) / 2
	b.kdSplit(sorted[:mid], budget/2, depth+1)
	b.kdSplit(sorted[mid:], budget-budget/2, depth+1)
}

func (b *refBuilder) emit(members []*tuple.Tuple) {
	lo, hi := refBounds(members, b.dims)
	c := refCell{Lo: lo, Hi: hi, Tuples: members}
	for k := 0; k < b.numKeys; k++ {
		var rows []*tuple.Tuple
		for _, t := range members {
			if b.opt.Keep == nil || b.opt.Keep[t.ID]&(1<<uint(k)) != 0 {
				rows = append(rows, t)
			}
		}
		sig := refSignature{}
		for _, t := range rows {
			sig[t.Key(k)] = struct{}{}
		}
		c.Rows, c.Sigs = append(c.Rows, rows), append(c.Sigs, sig)
	}
	b.cells = append(b.cells, c)
}

func refBounds(members []*tuple.Tuple, d int) (lo, hi []float64) {
	lo = append([]float64(nil), members[0].Attrs...)
	hi = append([]float64(nil), members[0].Attrs...)
	for _, t := range members[1:] {
		for k := 0; k < d; k++ {
			if t.Attr(k) < lo[k] {
				lo[k] = t.Attr(k)
			}
			if t.Attr(k) > hi[k] {
				hi[k] = t.Attr(k)
			}
		}
	}
	return lo, hi
}

// TestPartitionMatchesReference holds Partition to the closure-sort split
// it replaced: cell IDs, bounds to the bit, member order, row lists and
// signatures. The relations tie often on their attributes (−0 and +0
// among them, so a tie is broken by ID), some carry IDs that are not their
// positions, some hold one point many times, some go through Keep masks,
// and some split to the depth cap.
func TestPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	var seen struct{ ties, shuffled, identical, kept, capped, cells int }
	for trial := range 400 {
		n, d, nk := 1+rng.Intn(300), 1+rng.Intn(4), rng.Intn(3)
		opt := DefaultOptions(n, 1+rng.Intn(40))
		if trial%40 == 0 { // the depth cap: more than 2^maxDepth leaves asked for
			n, opt = 4200+rng.Intn(300), Options{TargetLeaves: 1 << 20, MaxLeafSize: 1}
			seen.capped++
		}
		draw := func() float64 { return 1 + 99*rng.Float64() }
		switch trial % 3 {
		case 0:
			draw = func() float64 { return float64(rng.Intn(6)) / 2 }
		case 1:
			draw = func() float64 {
				if rng.Intn(2) == 0 {
					return math.Copysign(0, -1)
				}
				return float64(rng.Intn(3))
			}
		}
		rel := tuple.NewRelation(tuple.Schema{Name: "R", AttrNames: make([]string, d), KeyNames: make([]string, nk)})
		identical := trial%17 == 0
		for range n {
			attrs, keys := make([]float64, d), make([]int64, nk)
			for k := range attrs {
				attrs[k] = draw()
				if identical {
					attrs[k] = 5
				}
			}
			for k := range keys {
				keys[k] = rng.Int63n(12)
			}
			rel.MustAppend(attrs, keys)
		}
		if identical {
			seen.identical++
		}
		if trial%4 == 3 { // IDs that are not row positions
			for i, j := range rng.Perm(n) {
				rel.Tuples[i].ID = j
			}
			seen.shuffled++
		}
		if trial%2 == 0 {
			opt.Keep = make([]uint64, n)
			for i := range opt.Keep {
				opt.Keep[i] = uint64(rng.Intn(1 << uint(nk+1)))
			}
			seen.kept++
		}
		if trial%3 != 2 {
			seen.ties++
		}
		label := fmt.Sprintf("trial %d (n %d, d %d, %d keys)", trial, n, d, nk)
		cells, err := Partition(rel, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := referencePartition(rel, opt)
		if len(cells) != len(want) {
			t.Fatalf("%s: %d cells, reference %d", label, len(cells), len(want))
		}
		seen.cells += len(cells)
		same := func(a, b []float64) bool {
			return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
		}
		for i, c := range cells {
			w := want[i]
			switch {
			case c.ID != i:
				t.Fatalf("%s: cell %d has ID %d", label, i, c.ID)
			case !same(c.Lo, w.Lo) || !same(c.Hi, w.Hi):
				t.Fatalf("%s: cell %d box %v–%v, reference %v–%v", label, i, c.Lo, c.Hi, w.Lo, w.Hi)
			case !slices.Equal(c.Tuples, w.Tuples):
				t.Fatalf("%s: cell %d members differ from the reference's", label, i)
			case len(c.Rows) != nk || len(c.Sigs) != nk:
				t.Fatalf("%s: cell %d has %d row lists and %d signatures for %d keys", label, i, len(c.Rows), len(c.Sigs), nk)
			}
			for k := range nk {
				if !slices.Equal(c.Rows[k], w.Rows[k]) {
					t.Fatalf("%s: cell %d key %d rows differ from the reference's", label, i, k)
				}
				if keys := w.Sigs[k].run(); !slices.Equal(c.Sigs[k], keys) || cap(c.Sigs[k]) != len(c.Sigs[k]) {
					t.Fatalf("%s: cell %d key %d signature %v (cap %d), reference %v", label, i, k, c.Sigs[k], cap(c.Sigs[k]), keys)
				}
			}
		}
	}
	t.Logf("%+v", seen)
}
