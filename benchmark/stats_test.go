package main

import (
	"testing"
	"time"

	"caqe/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, tc := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {21, 20}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", vals, tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("percentile of unsorted input = %v, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{nil, 0}, {[]float64{7}, 7}, {[]float64{9, 1}, 5}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.vals); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.vals, got, tc.want)
		}
	}
}

func TestStretchBounds(t *testing.T) {
	// The stretches of a phase cover every cycle once, in order, in shares
	// that differ by at most one cycle — also when there are fewer cycles
	// than stretches.
	for _, n := range []int{0, 5, paceStretches, 40, 592, 1760} {
		next, least, most := 0, n, 0
		for i := 0; i < paceStretches; i++ {
			from, to := stretchBounds(n, i)
			if from != next || to < from {
				t.Fatalf("n=%d stretch %d: [%d,%d), want it to start at %d", n, i, from, to, next)
			}
			next = to
			least, most = min(least, to-from), max(most, to-from)
		}
		if next != n || most-least > 1 {
			t.Errorf("n=%d: stretches end at %d with shares of %d to %d cycles", n, next, least, most)
		}
	}
}

func TestHostPace(t *testing.T) {
	// The kernel is the same work every time (sample panics otherwise), on
	// windows large enough to be worth timing, and a host at the reference
	// pace leaves a timing as it is.
	h := newHostPace()
	if h.want[0] < 100 || h.want[1] < 100 {
		t.Errorf("pace kernel skylines hold %v points, want hundreds", h.want)
	}
	if again := newHostPace(); again.want != h.want {
		t.Errorf("a second kernel has skylines of %v points, the first %v", again.want, h.want)
	}
	if s := h.sample(); s.wall <= 0 || s.cpu <= 0 {
		t.Errorf("sample took %+v ms", s)
	}
	ref := paceSample{referencePaceMS, referencePaceMS}
	if f := paceBetween(ref, ref); f != (paceFactor{1, 1}) {
		t.Errorf("factors at the reference pace = %+v, want 1", f)
	}
	// A host that runs at half speed half of the time it grants.
	slow := paceSample{wall: 4 * referencePaceMS, cpu: 2 * referencePaceMS}
	if f := paceBetween(slow, slow); f != (paceFactor{0.25, 0.5}) {
		t.Errorf("factors = %+v, want 0.25 for wall and 0.5 for CPU times", f)
	}
}

func TestAttribute(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	op := func(ms int, name string) stampedEvent { return stampedEvent{at(ms), trace.KindOpBatch, name} }
	ev := func(ms int, k trace.Kind) stampedEvent { return stampedEvent{at: at(ms), kind: k} }
	events := []stampedEvent{
		ev(0, trace.KindStart),
		ev(1, trace.KindDecision), // 0→1 scheduler
		// Region A, two join conditions; the second joins to nothing.
		op(3, opPartitionScan),     // 1→3 scheduler (pick to first offer)
		op(10, opSignatureJoin),    // 3→10 join
		op(30, opPartitionScan),    // 10→30 dominance (inserts of the first condition)
		ev(31, trace.KindDiscard),  // 30→31 join: the phase stands across other kinds
		op(34, opDominanceFilter),  // 31→34 join (no SignatureJoin: an empty join and the epilogue)
		ev(36, trace.KindEmit),     // 34→36 scheduler
		ev(37, trace.KindFeedback), // 36→37 scheduler
		ev(40, trace.KindDefer),    // 37→40 scheduler
		ev(41, trace.KindDecision), // 40→41 scheduler
		// Region B.
		op(42, opPartitionScan),   // 41→42 scheduler
		op(50, opSignatureJoin),   // 42→50 join
		ev(55, trace.KindDiscard), // 50→55 dominance
		op(60, opDominanceFilter), // 55→60 dominance
		ev(65, trace.KindEnd),     // 60→65 scheduler
	}
	got := attribute(events)
	want := phaseTimes{
		join:      at(7 + 1 + 3 + 8),
		dominance: at(20 + 5 + 5),
		sched:     at(1 + 2 + 2 + 1 + 3 + 1 + 1 + 5),
		decisions: 2,
		deferrals: 1,
	}
	if got != want {
		t.Errorf("attribute = %+v, want %+v", got, want)
	}
	if total := got.join + got.dominance + got.sched; total != at(65) {
		t.Errorf("phases sum to %v, want the whole 65ms", total)
	}
	if got := attribute(nil); got != (phaseTimes{}) {
		t.Errorf("attribute of no events = %+v", got)
	}
}
