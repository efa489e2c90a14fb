package contract

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestC1HardDeadline(t *testing.T) {
	c := C1(30)
	tr := c.NewTracker(0)
	tr.Observe(10)   // utility 1
	tr.Observe(30)   // boundary: still 1
	tr.Observe(30.1) // 0
	tr.Finalize(40)
	if got := tr.PScore(); got != 2 {
		t.Fatalf("pScore = %g, want 2", got)
	}
	utils := tr.Utilities()
	want := []float64{1, 1, 0}
	for i := range want {
		if utils[i] != want[i] {
			t.Fatalf("utilities = %v", utils)
		}
	}
}

func TestC2LogDecay(t *testing.T) {
	c := C2()
	tr := c.NewTracker(0)
	tr.Observe(5)    // within grace: 1
	tr.Observe(10)   // log10(10)=1 → 1
	tr.Observe(100)  // 0.5
	tr.Observe(1000) // 1/3
	tr.Finalize(1000)
	utils := tr.Utilities()
	want := []float64{1, 1, 0.5, 1.0 / 3}
	for i := range want {
		if math.Abs(utils[i]-want[i]) > 1e-12 {
			t.Fatalf("utilities = %v, want %v", utils, want)
		}
	}
}

func TestC3PaperExample(t *testing.T) {
	// §7.2: "a tuple with a time stamp of 12 seconds has a utility of 0.5"
	// under t_C3 = 10.
	c := C3(10)
	tr := c.NewTracker(0)
	tr.Observe(12)
	tr.Finalize(12)
	if got := tr.PScore(); got != 0.5 {
		t.Fatalf("utility at 12s = %g, want 0.5", got)
	}
}

func TestC3ClampsToOne(t *testing.T) {
	c := C3(10)
	tr := c.NewTracker(0)
	tr.Observe(10.5) // 1/(0.5) = 2 → clamped to 1
	tr.Finalize(11)
	if got := tr.PScore(); got != 1 {
		t.Fatalf("clamped utility = %g", got)
	}
}

func TestC4QuotaMet(t *testing.T) {
	// 10% per 10s interval, N = 100: 10 tuples per interval meet quota.
	c := C4(0.1, 10)
	tr := c.NewTracker(100)
	for i := 0; i < 10; i++ {
		tr.Observe(float64(i))
	}
	for i := 0; i < 10; i++ {
		tr.Observe(10 + float64(i))
	}
	tr.Finalize(20)
	if got := tr.PScore(); got != 20 {
		t.Fatalf("pScore = %g, want 20", got)
	}
}

func TestC4QuotaMissedIsNegative(t *testing.T) {
	// Eq. 3: an interval with n < N·frac scores n/(N·frac) − 1 < 0 per
	// tuple.
	c := C4(0.1, 10)
	tr := c.NewTracker(100) // quota: 10 per interval
	tr.Observe(1)           // single tuple in interval 0
	tr.Finalize(10)
	want := 1.0/10 - 1 // -0.9
	if got := tr.PScore(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("pScore = %g, want %g", got, want)
	}
}

func TestC4EmptyIntervalsContributeNothing(t *testing.T) {
	c := C4(0.1, 10)
	tr := c.NewTracker(100)
	tr.Observe(55) // tuple in interval 5; intervals 0-4 empty
	tr.Finalize(60)
	if n := tr.Count(); n != 1 {
		t.Fatalf("count = %d", n)
	}
	want := 1.0/10 - 1
	if got := tr.PScore(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("pScore = %g, want %g", got, want)
	}
}

func TestC4BulkDeliveryMeetsQuota(t *testing.T) {
	// Eq. 3 does not penalize bulk delivery: all N tuples in one interval
	// meet the quota (documented in EXPERIMENTS.md).
	c := C4(0.1, 10)
	tr := c.NewTracker(100)
	for i := 0; i < 100; i++ {
		tr.Observe(95)
	}
	tr.Finalize(100)
	if got := tr.PScore(); got != 100 {
		t.Fatalf("pScore = %g, want 100", got)
	}
}

func TestC4UnknownTotalTreatsDeliveryAsQuota(t *testing.T) {
	c := C4(0.1, 10)
	tr := c.NewTracker(0)
	tr.Observe(1)
	tr.Finalize(10)
	if got := tr.PScore(); got != 1 {
		t.Fatalf("pScore with unknown N = %g, want 1", got)
	}
}

func TestC5HybridProduct(t *testing.T) {
	// C5 = C4 quota utility × 1/ts decay.
	c := C5(0.1, 10)
	tr := c.NewTracker(10) // quota 1 per interval
	tr.Observe(4)          // meets quota; decay 1/4
	tr.Finalize(10)
	if got := tr.PScore(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("pScore = %g, want 0.25", got)
	}
}

func TestC5WithinFirstSecondFullDecay(t *testing.T) {
	c := C5(0.5, 10)
	tr := c.NewTracker(2)
	tr.Observe(0.5)
	tr.Observe(0.9)
	tr.Finalize(10)
	if got := tr.PScore(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("pScore = %g, want 2 (decay clamped to 1 within 1s)", got)
	}
}

func TestHybridUtilitiesAlignWithObservations(t *testing.T) {
	c := C5(0.1, 10)
	tr := c.NewTracker(20) // quota 2
	tr.Observe(2)          // interval 0: only 1 tuple → quota missed
	tr.Observe(14)         // interval 1
	tr.Observe(16)         // interval 1: quota met
	tr.Finalize(20)
	utils := tr.Utilities()
	if len(utils) != 3 {
		t.Fatalf("got %d utilities", len(utils))
	}
	// First tuple: card = 1/2-1 = -0.5; the shortfall penalty is NOT
	// diluted by the 1/ts decay (a decayed penalty would shrink as
	// delivery slips later — an inverted incentive).
	if math.Abs(utils[0]-(-0.5)) > 1e-12 {
		t.Fatalf("utils[0] = %g, want -0.5", utils[0])
	}
	// Second: card 1, decay 1/14.
	if math.Abs(utils[1]-1.0/14) > 1e-12 {
		t.Fatalf("utils[1] = %g", utils[1])
	}
}

// TestHybridPenaltyNotDecayed pins the C5 incentive direction: for a fixed
// quota shortfall, the per-tuple utility must be non-increasing in the
// emission timestamp. Before the fix, the negative shortfall utility was
// multiplied by the 1/ts decay, so delivering *later* scored *better*.
func TestHybridPenaltyNotDecayed(t *testing.T) {
	prev := math.Inf(1)
	for _, ts := range []float64{2, 5, 8} {
		c := C5(0.1, 10)
		tr := c.NewTracker(20) // quota 2/interval; one delivery misses it
		tr.Observe(ts)
		tr.Finalize(10)
		utils := tr.Utilities()
		if len(utils) != 1 {
			t.Fatalf("ts=%g: got %d utilities", ts, len(utils))
		}
		if utils[0] >= 0 {
			t.Fatalf("ts=%g: util = %g, want a negative shortfall penalty", ts, utils[0])
		}
		if utils[0] > prev {
			t.Fatalf("ts=%g: util %g > util %g at an earlier ts — later delivery must not score better", ts, utils[0], prev)
		}
		prev = utils[0]
	}
}

func TestPScoreEqualsSumOfUtilities(t *testing.T) {
	contracts := []Contract{C1(20), C2(), C3(15), C4(0.2, 5), C5(0.2, 5)}
	for _, c := range contracts {
		tr := c.NewTracker(50)
		for ts := 1.0; ts < 60; ts += 3.7 {
			tr.Observe(ts)
		}
		tr.Finalize(60)
		sum := 0.0
		for _, u := range tr.Utilities() {
			sum += u
		}
		if math.Abs(sum-tr.PScore()) > 1e-9 {
			t.Errorf("%s: Σutilities %g != pScore %g", c.Name(), sum, tr.PScore())
		}
		if tr.Count() != len(tr.Utilities()) {
			t.Errorf("%s: count %d != %d utilities", c.Name(), tr.Count(), len(tr.Utilities()))
		}
	}
}

func TestTimeContractsBounded(t *testing.T) {
	err := quick.Check(func(rawTs uint32) bool {
		ts := float64(rawTs%100000) + 0.1
		for _, c := range []Contract{C1(30), C2(), C3(30)} {
			tr := c.NewTracker(0)
			tr.Observe(ts)
			tr.Finalize(ts)
			u := tr.PScore()
			if u < 0 || u > 1 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeClampedAndProgressive(t *testing.T) {
	c := C1(10)
	tr := c.NewTracker(0)
	if tr.Runtime() != 0 {
		t.Fatal("runtime before any result should be 0")
	}
	tr.Observe(5)
	if tr.Runtime() != 1 {
		t.Fatalf("runtime after on-time result = %g", tr.Runtime())
	}
	tr.Observe(50) // late: utility 0
	if got := tr.Runtime(); got != 0.5 {
		t.Fatalf("runtime = %g, want 0.5", got)
	}
}

func TestAvgSatisfaction(t *testing.T) {
	c := C1(10)
	tr := c.NewTracker(0)
	tr.Finalize(0)
	if got := AvgSatisfaction(tr); got != 0 {
		t.Fatalf("satisfaction with no results = %g, want 0", got)
	}

	tr2 := c.NewTracker(0)
	tr2.Observe(1)
	tr2.Observe(99)
	tr2.Finalize(99)
	if got := AvgSatisfaction(tr2); got != 0.5 {
		t.Fatalf("satisfaction = %g, want 0.5", got)
	}
}

func TestAvgSatisfactionClampsNegative(t *testing.T) {
	c := C4(0.5, 10)
	tr := c.NewTracker(100) // quota 50 per interval
	tr.Observe(1)           // way below quota → negative utility
	tr.Finalize(10)
	if got := AvgSatisfaction(tr); got != 0 {
		t.Fatalf("negative satisfaction not clamped: %g", got)
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	c := C4(0.1, 10)
	tr := c.NewTracker(10)
	tr.Observe(5)
	tr.Finalize(20)
	first := tr.PScore()
	tr.Finalize(40)
	if tr.PScore() != first {
		t.Fatalf("second Finalize changed pScore: %g vs %g", tr.PScore(), first)
	}
}

func TestContractNames(t *testing.T) {
	cases := map[Contract]string{
		C1(30):       "C1(t=30s)",
		C2():         "C2",
		C3(10):       "C3(t=10s)",
		C4(0.1, 60):  "C4(10%/60s)",
		C5(0.25, 10): "C5(25%/10s)",
	}
	for c, want := range cases {
		if c.Name() != want {
			t.Errorf("Name() = %q, want %q", c.Name(), want)
		}
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { C4(0, 10) },
		func() { C4(0.1, 0) },
		func() { C5(-1, 10) },
		func() { C5(0.1, -5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid contract params")
				}
			}()
			fn()
		}()
	}
}

func TestCustomContract(t *testing.T) {
	c := Func("step", func(ts float64) float64 {
		if ts < 5 {
			return 0.7
		}
		return 0.2
	})
	if c.Name() != "step" {
		t.Fatalf("name = %q", c.Name())
	}
	tr := c.NewTracker(0)
	tr.Observe(1)
	tr.Observe(9)
	tr.Finalize(9)
	if got := tr.PScore(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("pScore = %g", got)
	}
}

func TestExpectedUtilityAt(t *testing.T) {
	if got := ExpectedUtilityAt(C1(30), 10); got != 1 {
		t.Errorf("C1 before deadline: %g", got)
	}
	if got := ExpectedUtilityAt(C1(30), 31); got != 0 {
		t.Errorf("C1 after deadline: %g", got)
	}
	if got := ExpectedUtilityAt(C4(0.1, 10), 500); got != 1 {
		t.Errorf("C4 prospective utility: %g", got)
	}
	if got := ExpectedUtilityAt(C5(0.1, 10), 4); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("C5 prospective utility: %g", got)
	}
	// Unknown contract types default to 1.
	if got := ExpectedUtilityAt(unknownContract{}, 3); got != 1 {
		t.Errorf("unknown contract: %g", got)
	}
}

type unknownContract struct{}

func (unknownContract) Name() string           { return "?" }
func (unknownContract) NewTracker(int) Tracker { return nil }

func TestObserveOutOfOrderIntervalsClose(t *testing.T) {
	// Observations are non-decreasing by contract API; the tracker closes
	// all intermediate intervals when time jumps forward.
	c := C4(0.1, 1)
	tr := c.NewTracker(10) // quota 1 per 1s interval
	tr.Observe(0.5)
	tr.Observe(7.5)
	tr.Finalize(8)
	if n := tr.Count(); n != 2 {
		t.Fatalf("count = %d", n)
	}
	if got := tr.PScore(); got != 2 {
		t.Fatalf("pScore = %g (both intervals meet the quota of 1)", got)
	}
}

// TestTinyIntervalResolvesAtOnce: the cost of closing intervals must not grow
// with the number of empty intervals skipped. A 1e-12 s interval puts 1e15
// of them before t = 1000 s; an interval so short that the quotient leaves
// the integer range must still resolve, with every observation in the one
// saturated interval.
func TestTinyIntervalResolvesAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Contract
		est  int
		want []float64
	}{
		// Quota 10: two tuples in one interval, one in a later one.
		{"C4", C4(0.1, 1e-12), 100, []float64{2.0/10 - 1, 2.0/10 - 1, 1.0/10 - 1}},
		// Quota 1: every interval meets it, leaving the 1/ts decay.
		{"C5", C5(0.1, 1e-12), 10, []float64{1e-3, 1e-3, 1 / 2e3}},
		{"C4 saturated", C4(0.1, 1e-300), 100, []float64{3.0/10 - 1, 3.0/10 - 1, 3.0/10 - 1}},
	} {
		done := make(chan []float64, 1)
		go func() {
			tr := tc.c.NewTracker(tc.est)
			tr.Observe(1e3)
			tr.Observe(1e3)
			tr.Observe(2e3)
			tr.Finalize(2e3)
			done <- tr.Utilities()
		}()
		select {
		case got := <-done:
			if len(got) != len(tc.want) {
				t.Fatalf("%s: utilities %v, want %v", tc.name, got, tc.want)
			}
			for i := range got {
				if math.Abs(got[i]-tc.want[i]) > 1e-12 {
					t.Fatalf("%s: utilities %v, want %v", tc.name, got, tc.want)
				}
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: tracker still walking empty intervals after 2 s", tc.name)
		}
	}
}

func TestProductGeneralizesC5(t *testing.T) {
	// Product(C4, 1/ts decay) must equal the built-in hybrid C5 whenever
	// every interval meets its quota (all cardinality utilities
	// non-negative). On quota shortfalls the two differ by design: Product
	// multiplies components unconditionally, while C5 exempts the negative
	// shortfall penalty from the time decay so a late miss is never scored
	// better than an early one.
	decay := Func("1/ts", func(ts float64) float64 {
		if ts <= 1 {
			return 1
		}
		return 1 / ts
	})
	prod := Product(C4(0.1, 10), decay)
	c5 := C5(0.1, 10)
	tp := prod.NewTracker(20)
	t5 := c5.NewTracker(20)
	for _, ts := range []float64{2, 4, 14, 16, 25, 27} {
		tp.Observe(ts)
		t5.Observe(ts)
	}
	tp.Finalize(30)
	t5.Finalize(30)
	if math.Abs(tp.PScore()-t5.PScore()) > 1e-9 {
		t.Fatalf("Product = %g, C5 = %g", tp.PScore(), t5.PScore())
	}
	up, u5 := tp.Utilities(), t5.Utilities()
	for i := range up {
		if math.Abs(up[i]-u5[i]) > 1e-9 {
			t.Fatalf("utility %d: %g vs %g", i, up[i], u5[i])
		}
	}

	// Shortfall divergence: a lone delivery against a quota of 2 carries a
	// -0.5 penalty; C5 keeps it whole, Product decays it to -0.5/ts.
	tpMiss := prod.NewTracker(20)
	t5Miss := c5.NewTracker(20)
	tpMiss.Observe(5)
	t5Miss.Observe(5)
	tpMiss.Finalize(10)
	t5Miss.Finalize(10)
	if got := t5Miss.Utilities()[0]; math.Abs(got-(-0.5)) > 1e-12 {
		t.Fatalf("C5 shortfall utility = %g, want undecayed -0.5", got)
	}
	if got := tpMiss.Utilities()[0]; math.Abs(got-(-0.1)) > 1e-12 {
		t.Fatalf("Product shortfall utility = %g, want decayed -0.5/5", got)
	}
}

func TestWeightedSum(t *testing.T) {
	// 3:1 blend of a met deadline (1) and a missed one (0) = 0.75.
	c := WeightedSum([]float64{3, 1}, C1(100), C1(1))
	tr := c.NewTracker(0)
	tr.Observe(50)
	tr.Finalize(50)
	if got := tr.PScore(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("pScore = %g, want 0.75", got)
	}
	if tr.Count() != 1 || tr.Runtime() != 0.75 {
		t.Fatalf("count/runtime wrong: %d %g", tr.Count(), tr.Runtime())
	}
}

func TestCompositeNames(t *testing.T) {
	if got := Product(C1(10), C2()).Name(); got != "(C1(t=10s)*C2)" {
		t.Fatalf("Product name = %q", got)
	}
	if got := WeightedSum([]float64{1, 1}, C2(), C3(5)).Name(); got != "(C2+C3(t=5s))" {
		t.Fatalf("WeightedSum name = %q", got)
	}
}

func TestCompositeExpectedUtility(t *testing.T) {
	p := Product(C1(10), C1(20))
	if got := ExpectedUtilityAt(p, 15); got != 0 {
		t.Fatalf("product utility at 15 = %g (one deadline missed)", got)
	}
	if got := ExpectedUtilityAt(p, 5); got != 1 {
		t.Fatalf("product utility at 5 = %g", got)
	}
	ws := WeightedSum([]float64{1, 1}, C1(10), C1(20))
	if got := ExpectedUtilityAt(ws, 15); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("weighted-sum utility at 15 = %g", got)
	}
}

func TestCombinatorsPanicOnBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { Product() },
		func() { WeightedSum(nil) },
		func() { WeightedSum([]float64{1}, C1(1), C2()) },
		func() { WeightedSum([]float64{0, 1}, C1(1), C2()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
