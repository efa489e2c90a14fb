package join

import (
	"math/rand"
	"sort"
	"testing"

	"caqe/internal/metrics"
	"caqe/internal/tuple"
)

func mkTuples(rng *rand.Rand, n, dims, keys int, domain int64) []*tuple.Tuple {
	out := make([]*tuple.Tuple, n)
	for i := range out {
		attrs := make([]float64, dims)
		for k := range attrs {
			attrs[k] = rng.Float64() * 100
		}
		ks := make([]int64, keys)
		for k := range ks {
			ks[k] = rng.Int63n(domain)
		}
		out[i] = &tuple.Tuple{ID: i, Attrs: attrs, Keys: ks}
	}
	return out
}

func TestEquiJoinMatches(t *testing.T) {
	jc := EquiJoin{Name: "JC", LeftKey: 0, RightKey: 1}
	r := &tuple.Tuple{Keys: []int64{7}}
	a := &tuple.Tuple{Keys: []int64{0, 7}}
	b := &tuple.Tuple{Keys: []int64{7, 0}}
	if !jc.Matches(r, a) {
		t.Error("matching pair rejected")
	}
	if jc.Matches(r, b) {
		t.Error("non-matching pair accepted")
	}
}

func TestMapFuncEval(t *testing.T) {
	r := &tuple.Tuple{Attrs: []float64{10, 20}}
	s := &tuple.Tuple{Attrs: []float64{1, 2}}
	if v := Sum("x", 1).Eval(r, s); v != 22 {
		t.Errorf("Sum = %g", v)
	}
	if v := LeftOnly("x", 0).Eval(r, s); v != 10 {
		t.Errorf("LeftOnly = %g", v)
	}
	if v := RightOnly("x", 1).Eval(r, s); v != 2 {
		t.Errorf("RightOnly = %g", v)
	}
	if v := Weighted("x", 0, 1, 2, 3, 5).Eval(r, s); v != 2*10+3*2+5 {
		t.Errorf("Weighted = %g", v)
	}
}

func TestMapFuncValidate(t *testing.T) {
	good := []MapFunc{Sum("a", 0), LeftOnly("b", 1), RightOnly("c", 0), Weighted("d", 0, 0, 1, 1, -5)}
	for _, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("%s rejected: %v", f.Name, err)
		}
	}
	bad := []MapFunc{
		{Name: "neg", LeftAttr: 0, LeftW: -1},
		{Name: "noattrL", LeftAttr: -1, LeftW: 1},
		{Name: "noattrR", LeftAttr: 0, LeftW: 1, RightAttr: -1, RightW: 2},
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("%s accepted", f.Name)
		}
	}
}

// TestBoundsContainEval: for random boxes and tuples inside them, the
// interval arithmetic of Bounds must contain every evaluated output.
func TestBoundsContainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		d := 2
		lR := []float64{rng.Float64() * 50, rng.Float64() * 50}
		uR := []float64{lR[0] + rng.Float64()*50, lR[1] + rng.Float64()*50}
		lT := []float64{rng.Float64() * 50, rng.Float64() * 50}
		uT := []float64{lT[0] + rng.Float64()*50, lT[1] + rng.Float64()*50}
		fs := []MapFunc{
			Sum("s", rng.Intn(d)),
			Weighted("w", rng.Intn(d), rng.Intn(d), rng.Float64()*3, rng.Float64()*3, rng.Float64()*10),
		}
		for _, f := range fs {
			lo, hi := f.Bounds(lR, uR, lT, uT)
			for k := 0; k < 20; k++ {
				r := &tuple.Tuple{Attrs: []float64{
					lR[0] + rng.Float64()*(uR[0]-lR[0]),
					lR[1] + rng.Float64()*(uR[1]-lR[1]),
				}}
				s := &tuple.Tuple{Attrs: []float64{
					lT[0] + rng.Float64()*(uT[0]-lT[0]),
					lT[1] + rng.Float64()*(uT[1]-lT[1]),
				}}
				v := f.Eval(r, s)
				if v < lo-1e-9 || v > hi+1e-9 {
					t.Fatalf("%s: value %g outside [%g, %g]", f.Name, v, lo, hi)
				}
			}
		}
	}
}

func TestProject(t *testing.T) {
	r := &tuple.Tuple{Attrs: []float64{1, 2}}
	s := &tuple.Tuple{Attrs: []float64{10, 20}}
	out := Project([]MapFunc{Sum("a", 0), Sum("b", 1)}, r, s)
	if out[0] != 11 || out[1] != 22 {
		t.Fatalf("Project = %v", out)
	}
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].RID != rs[j].RID {
			return rs[i].RID < rs[j].RID
		}
		return rs[i].TID < rs[j].TID
	})
}

func TestNestedLoopEqualsHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		rs := mkTuples(rng, 40, 2, 1, 8)
		ts := mkTuples(rng, 40, 2, 1, 8)
		jc := EquiJoin{Name: "JC", LeftKey: 0, RightKey: 0}
		fs := []MapFunc{Sum("x", 0)}
		a := new(Scratch).NestedLoop(jc, fs, rs, ts, nil)
		b := HashJoin(jc, fs, rs, ts, nil)
		sortResults(a)
		sortResults(b)
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].RID != b[i].RID || a[i].TID != b[i].TID || a[i].Out[0] != b[i].Out[0] {
				t.Fatalf("trial %d: result %d differs: %+v vs %+v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestJoinResultCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rs := mkTuples(rng, 30, 1, 1, 5)
	ts := mkTuples(rng, 30, 1, 1, 5)
	jc := EquiJoin{Name: "JC", LeftKey: 0, RightKey: 0}
	got := new(Scratch).NestedLoop(jc, []MapFunc{Sum("x", 0)}, rs, ts, nil)
	seen := map[[2]int]bool{}
	for _, res := range got {
		seen[[2]int{res.RID, res.TID}] = true
		if rs[res.RID].Key(0) != ts[res.TID].Key(0) {
			t.Fatalf("joined non-matching pair %d,%d", res.RID, res.TID)
		}
		want := rs[res.RID].Attr(0) + ts[res.TID].Attr(0)
		if res.Out[0] != want {
			t.Fatalf("projection wrong: %g want %g", res.Out[0], want)
		}
	}
	for _, r := range rs {
		for _, s := range ts {
			if r.Key(0) == s.Key(0) && !seen[[2]int{r.ID, s.ID}] {
				t.Fatalf("matching pair %d,%d missing", r.ID, s.ID)
			}
		}
	}
}

func TestNestedLoopAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rs := mkTuples(rng, 25, 1, 1, 4)
	ts := mkTuples(rng, 17, 1, 1, 4)
	jc := EquiJoin{Name: "JC", LeftKey: 0, RightKey: 0}
	clock := metrics.NewClock()
	out := new(Scratch).NestedLoop(jc, []MapFunc{Sum("x", 0)}, rs, ts, clock)
	c := clock.Counters()
	if c.JoinProbes != int64(25*17) {
		t.Errorf("probes = %d, want %d", c.JoinProbes, 25*17)
	}
	if c.JoinResults != int64(len(out)) {
		t.Errorf("results counter %d != %d materialized", c.JoinResults, len(out))
	}
}

// referenceNestedLoop is NestedLoop as it read before it gathered the right
// side's keys and charged once per call: every pair tested with Matches,
// one probe and, on a match, one result charged as it goes.
func referenceNestedLoop(jc EquiJoin, fs []MapFunc, rs, ts []*tuple.Tuple, clock *metrics.Clock) []Result {
	var dst []Result
	for _, r := range rs {
		for _, t := range ts {
			clock.CountJoinProbe(1)
			if !jc.Matches(r, t) {
				continue
			}
			clock.CountJoinResult(1)
			dst = append(dst, Result{RID: r.ID, TID: t.ID, Out: Project(fs, r, t)})
		}
	}
	return dst
}

// TestNestedLoopMatchesReference: on random sides — empty ones, duplicate
// keys, the two key columns crossed — split as a reopened region's join
// splits them into its two cursor segments (new left × all right, old left
// × new right), NestedLoop returns the reference's results in the same
// order and leaves the clock where the per-pair charges leave it. Both
// segments keep one Scratch each across trials, as the executor does, so
// buffers (keys included) longer than the call are reused.
func TestNestedLoopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fs := []MapFunc{Sum("a", 0), Weighted("b", 1, 0, 2, 0.5, 1)}
	var js [2]Scratch
	var results int
	for trial := 0; trial < 500; trial++ {
		rs := mkTuples(rng, rng.Intn(14), 2, 2, 1+int64(rng.Intn(4)))
		ts := mkTuples(rng, rng.Intn(14), 2, 2, 1+int64(rng.Intn(4)))
		jc := EquiJoin{Name: "JC", LeftKey: rng.Intn(2), RightKey: rng.Intn(2)}
		cl, ct := rng.Intn(len(rs)+1), rng.Intn(len(ts)+1)
		for s, seg := range [2][2][]*tuple.Tuple{{rs[cl:], ts}, {rs[:cl], ts[ct:]}} {
			got, want := metrics.NewClock(), metrics.NewClock()
			a := js[s].NestedLoop(jc, fs, seg[0], seg[1], got)
			b := referenceNestedLoop(jc, fs, seg[0], seg[1], want)
			if len(a) != len(b) {
				t.Fatalf("trial %d, segment %d: %d results, reference %d", trial, s, len(a), len(b))
			}
			for i := range a {
				if a[i].RID != b[i].RID || a[i].TID != b[i].TID || len(a[i].Out) != len(b[i].Out) ||
					a[i].Out[0] != b[i].Out[0] || a[i].Out[1] != b[i].Out[1] {
					t.Fatalf("trial %d, segment %d: result %d is %+v, reference %+v", trial, s, i, a[i], b[i])
				}
			}
			if got.Counters() != want.Counters() || got.Now() != want.Now() {
				t.Fatalf("trial %d, segment %d: charged %v at %g, reference %v at %g",
					trial, s, got.Counters(), got.Now(), want.Counters(), want.Now())
			}
			results += len(a)
		}
	}
	if results < 1000 {
		t.Fatalf("only %d results over every trial", results)
	}
}

func TestHashJoinAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rs := mkTuples(rng, 25, 1, 1, 4)
	ts := mkTuples(rng, 17, 1, 1, 4)
	jc := EquiJoin{Name: "JC", LeftKey: 0, RightKey: 0}
	clock := metrics.NewClock()
	out := HashJoin(jc, []MapFunc{Sum("x", 0)}, rs, ts, clock)
	c := clock.Counters()
	if c.JoinProbes != 25 {
		t.Errorf("hash probes = %d, want 25 (one per left tuple)", c.JoinProbes)
	}
	if c.JoinResults != int64(len(out)) {
		t.Errorf("results counter %d != %d materialized", c.JoinResults, len(out))
	}
	if c.CellOps != 17 {
		t.Errorf("build cell ops = %d, want 17 (one per right tuple inserted)", c.CellOps)
	}
}

// TestHashJoinBuildNotFree pins the relative cost of the two join
// algorithms: the hash index build must be charged to the virtual clock
// (one coarse op per right tuple), so a hash join is cheaper than the
// nested loop by its probe savings but strictly more expensive than a
// fictitious build-free hash join. Before the fix, strategies using
// HashJoin got the index for free and their emission timestamps were
// unfairly early relative to NestedLoop.
func TestHashJoinBuildNotFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rs := mkTuples(rng, 40, 1, 1, 8)
	ts := mkTuples(rng, 30, 1, 1, 8)
	jc := EquiJoin{Name: "JC", LeftKey: 0, RightKey: 0}
	fs := []MapFunc{Sum("x", 0)}

	nl := metrics.NewClock()
	new(Scratch).NestedLoop(jc, fs, rs, ts, nl)
	hj := metrics.NewClock()
	HashJoin(jc, fs, rs, ts, hj)

	buildCost := 30 * metrics.CostCellProbe
	probeSavings := float64(40*30-40) * metrics.CostJoinProbe
	if got := nl.Now() - hj.Now(); got != probeSavings-buildCost {
		t.Fatalf("cost gap nested-loop minus hash = %g, want probe savings %g minus build %g",
			got, probeSavings, buildCost)
	}
	if hj.Counters().CellOps == 0 {
		t.Fatal("hash build charged nothing")
	}
}

func TestEquiJoinString(t *testing.T) {
	jc := EquiJoin{Name: "JC1", LeftKey: 0, RightKey: 2}
	if s := jc.String(); s != "JC1: R.k0 = T.k2" {
		t.Errorf("String() = %q", s)
	}
}
