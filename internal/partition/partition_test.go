package partition

import (
	"slices"
	"testing"
	"testing/quick"

	"caqe/internal/datagen"
	"caqe/internal/metrics"
	"caqe/internal/tuple"
)

func testRelation(n, dims, keys int, seed int64) *tuple.Relation {
	domains := make([]int64, keys)
	for i := range domains {
		domains[i] = 20
	}
	return datagen.MustGenerate(datagen.Config{
		Name: "R", N: n, Dims: dims, Distribution: datagen.Independent,
		NumKeys: keys, KeyDomain: domains, Seed: seed,
	})
}

func TestKDMedianHitsTarget(t *testing.T) {
	for _, target := range []int{1, 2, 8, 16, 32} {
		rel := testRelation(640, 3, 1, 1)
		cells, err := Partition(rel, DefaultOptions(rel.Len(), target))
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) < target/2 || len(cells) > target*2 {
			t.Errorf("target %d: got %d cells", target, len(cells))
		}
	}
}

func TestCellsPartitionTheRelation(t *testing.T) {
	rel := testRelation(300, 3, 1, 2)
	cells, err := Partition(rel, Options{TargetLeaves: 16, MaxLeafSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	requireExactCover(t, rel, cells)
}

// requireExactCover fails unless every row of rel sits in exactly one cell.
func requireExactCover(t *testing.T, rel *tuple.Relation, cells []*Cell) {
	t.Helper()
	seen := map[int]int{}
	for _, c := range cells {
		for _, tu := range c.Tuples {
			seen[tu.ID]++
		}
	}
	if len(seen) != rel.Len() {
		t.Fatalf("%d of %d tuples covered", len(seen), rel.Len())
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("tuple %d appears in %d cells", id, n)
		}
	}
}

func TestBoundsAreTight(t *testing.T) {
	rel := testRelation(200, 2, 0, 3)
	cells, err := Partition(rel, DefaultOptions(rel.Len(), 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		for k := 0; k < 2; k++ {
			minV, maxV := c.Tuples[0].Attr(k), c.Tuples[0].Attr(k)
			for _, tu := range c.Tuples {
				if tu.Attr(k) < minV {
					minV = tu.Attr(k)
				}
				if tu.Attr(k) > maxV {
					maxV = tu.Attr(k)
				}
			}
			if c.Lo[k] != minV || c.Hi[k] != maxV {
				t.Fatalf("cell %d dim %d bounds [%g,%g] not tight (members span [%g,%g])",
					c.ID, k, c.Lo[k], c.Hi[k], minV, maxV)
			}
		}
	}
}

func TestSignaturesMatchMembers(t *testing.T) {
	rel := testRelation(300, 2, 2, 4)
	cells, err := Partition(rel, DefaultOptions(rel.Len(), 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		for k := 0; k < 2; k++ {
			want := map[int64]bool{}
			for _, tu := range c.Tuples {
				want[tu.Key(k)] = true
			}
			if len(want) != len(c.Sigs[k]) {
				t.Fatalf("cell %d key %d: signature size %d != %d distinct values",
					c.ID, k, len(c.Sigs[k]), len(want))
			}
			for v := range want {
				if _, ok := slices.BinarySearch(c.Sigs[k], v); !ok {
					t.Fatalf("cell %d key %d: value %d missing from signature", c.ID, k, v)
				}
			}
		}
	}
}

func TestSignatureIntersects(t *testing.T) {
	a := Signature{1, 2, 3}
	b := Signature{3, 4}
	c := Signature{5}
	if !a.Intersects(b, nil) || !b.Intersects(a, nil) {
		t.Error("overlapping signatures reported disjoint")
	}
	if a.Intersects(c, nil) || c.Intersects(a, nil) {
		t.Error("disjoint signatures reported overlapping")
	}
	var empty Signature
	if empty.Intersects(a, nil) {
		t.Error("empty signature intersects")
	}
	clock := metrics.NewClock()
	a.Intersects(c, clock)
	if clock.Counters().CellOps == 0 {
		t.Error("intersection probes not charged")
	}
}

func TestCellIDsSequential(t *testing.T) {
	rel := testRelation(100, 2, 0, 5)
	cells, err := Partition(rel, DefaultOptions(rel.Len(), 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if c.ID != i {
			t.Fatalf("cell %d has ID %d", i, c.ID)
		}
	}
}

func TestEmptyRelation(t *testing.T) {
	rel := tuple.NewRelation(tuple.Schema{Name: "E", AttrNames: []string{"a"}})
	cells, err := Partition(rel, DefaultOptions(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("empty relation produced %d cells", len(cells))
	}
}

func TestIdenticalTuples(t *testing.T) {
	rel := tuple.NewRelation(tuple.Schema{Name: "I", AttrNames: []string{"a", "b"}})
	for i := 0; i < 50; i++ {
		rel.MustAppend([]float64{5, 5}, nil)
	}
	cells, err := Partition(rel, Options{TargetLeaves: 8, MaxLeafSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range cells {
		total += len(c.Tuples)
	}
	if total != 50 {
		t.Fatalf("%d tuples in cells", total)
	}
}

func TestInvalidOptions(t *testing.T) {
	rel := testRelation(10, 2, 0, 6)
	if _, err := Partition(rel, Options{MaxLeafSize: 0}); err == nil {
		t.Error("MaxLeafSize 0 accepted")
	}
}

func TestNoNumericAttrsRejected(t *testing.T) {
	rel := tuple.NewRelation(tuple.Schema{Name: "K", KeyNames: []string{"k"}})
	rel.MustAppend(nil, []int64{1})
	if _, err := Partition(rel, Options{MaxLeafSize: 5}); err == nil {
		t.Error("relation without numeric attributes accepted")
	}
}

func TestKDMedianBalanced(t *testing.T) {
	rel := testRelation(512, 3, 0, 8)
	cells, err := Partition(rel, DefaultOptions(512, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if len(c.Tuples) < 16 || len(c.Tuples) > 64 {
			t.Errorf("cell %d holds %d tuples; expected balanced leaves around 32", c.ID, len(c.Tuples))
		}
	}
}

func TestDeterministic(t *testing.T) {
	rel := testRelation(300, 3, 1, 9)
	a, _ := Partition(rel, DefaultOptions(300, 8))
	b, _ := Partition(rel, DefaultOptions(300, 8))
	if len(a) != len(b) {
		t.Fatal("nondeterministic cell count")
	}
	for i := range a {
		if len(a[i].Tuples) != len(b[i].Tuples) {
			t.Fatalf("cell %d sizes differ", i)
		}
		for j := range a[i].Tuples {
			if a[i].Tuples[j].ID != b[i].Tuples[j].ID {
				t.Fatalf("cell %d member %d differs", i, j)
			}
		}
	}
}

// TestLargeDimCountPartitions: the median split has no limit on the number
// of attributes, so a 17-attribute relation splits into cells that cover
// every row exactly once.
func TestLargeDimCountPartitions(t *testing.T) {
	rel := testRelation(400, 17, 1, 10)
	cells, err := Partition(rel, DefaultOptions(rel.Len(), 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 2 {
		t.Fatalf("17-attribute relation split into %d cells", len(cells))
	}
	requireExactCover(t, rel, cells)
}

// TestPartitionCoverageQuick: for arbitrary small relations and targets,
// partitioning must cover every tuple exactly once with members inside
// their cell bounds.
func TestPartitionCoverageQuick(t *testing.T) {
	check := func(rawN, rawTarget uint8, seed int64) bool {
		n := 1 + int(rawN%200)
		target := 1 + int(rawTarget%32)
		rel := datagen.MustGenerate(datagen.Config{
			Name: "R", N: n, Dims: 3, Distribution: datagen.Independent,
			NumKeys: 1, KeyDomain: []int64{7}, Seed: seed,
		})
		cells, err := Partition(rel, DefaultOptions(n, target))
		if err != nil {
			return false
		}
		seen := make(map[int]bool, n)
		for _, c := range cells {
			for _, tu := range c.Tuples {
				if seen[tu.ID] {
					return false
				}
				seen[tu.ID] = true
				for k := 0; k < 3; k++ {
					if tu.Attr(k) < c.Lo[k] || tu.Attr(k) > c.Hi[k] {
						return false
					}
				}
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestKeepSplitsRowsByKeyColumn: with a filter verdict, a row with no bit
// set enters no cell, each key column's row list holds exactly the members
// kept for it, and each signature is built over that list.
func TestKeepSplitsRowsByKeyColumn(t *testing.T) {
	rel := testRelation(300, 3, 2, 5)
	keep := make([]uint64, rel.Len())
	for i := range keep {
		keep[i] = uint64(i % 4) // none, key 0, key 1, both
	}
	cells, err := Partition(rel, Options{TargetLeaves: 8, MaxLeafSize: 30, Keep: keep})
	if err != nil {
		t.Fatal(err)
	}
	members := 0
	for _, c := range cells {
		members += len(c.Tuples)
		for _, tu := range c.Tuples {
			if keep[tu.ID] == 0 {
				t.Errorf("cell %d holds row %d, kept for no key column", c.ID, tu.ID)
			}
		}
		for k, rows := range c.Rows {
			want := 0
			for _, tu := range c.Tuples {
				if keep[tu.ID]&(1<<uint(k)) != 0 {
					want++
				}
			}
			sig := map[int64]bool{}
			for _, tu := range rows {
				if keep[tu.ID]&(1<<uint(k)) == 0 {
					t.Errorf("cell %d lists row %d under key %d, not kept for it", c.ID, tu.ID, k)
				}
				sig[tu.Key(k)] = true
			}
			if len(rows) != want || len(sig) != len(c.Sigs[k]) {
				t.Errorf("cell %d key %d: %d rows, %d signature values; want %d, %d", c.ID, k, len(rows), len(c.Sigs[k]), want, len(sig))
			}
		}
	}
	if members != 225 {
		t.Errorf("cells hold %d rows, want the 225 kept for some key column", members)
	}
}

// TestAppendStaysInItsCell: the leaves of one split share a backing array,
// so a row appended to a leaf's member or row list must not land in its
// sibling — before the lists were capacity-clamped it overwrote the
// sibling's first member.
func TestAppendStaysInItsCell(t *testing.T) {
	rel := testRelation(400, 3, 1, 7)
	cells, err := Partition(rel, DefaultOptions(rel.Len(), 24))
	if err != nil {
		t.Fatal(err)
	}
	var before [][]*tuple.Tuple
	for _, c := range cells {
		before = append(before, append([]*tuple.Tuple(nil), c.Tuples...))
	}
	for _, c := range cells {
		extra := &tuple.Tuple{ID: -1, Attrs: []float64{0, 0, 0}, Keys: []int64{0}}
		c.Tuples = append(c.Tuples, extra)
		c.Rows[0] = append(c.Rows[0], extra)
	}
	for i, c := range cells {
		for j, tu := range before[i] {
			if c.Tuples[j] != tu || c.Rows[0][j] != tu {
				t.Fatalf("cell %d member %d overwritten by a sibling's append", c.ID, j)
			}
		}
	}
}
