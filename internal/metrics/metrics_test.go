package metrics

import (
	"strings"
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewClock()
	if k.Now() != 0 {
		t.Fatalf("new clock at %g", k.Now())
	}
}

func TestAdvance(t *testing.T) {
	k := NewClock()
	k.Advance(5)
	k.Advance(-3) // ignored
	k.Advance(0)  // ignored
	if k.Now() != 5 {
		t.Fatalf("now = %g, want 5", k.Now())
	}
}

func TestCountersAdvanceClockByCost(t *testing.T) {
	k := NewClock()
	k.CountJoinProbe(10)
	want := 10 * CostJoinProbe
	if k.Now() != want {
		t.Fatalf("after probes: %g want %g", k.Now(), want)
	}
	k.CountJoinResult(2)
	want += 2 * CostJoinResult
	k.CountSkylineCmp(3)
	want += 3 * CostSkylineCmp
	k.CountCellOp(4)
	want += 4 * CostCellProbe
	k.CountEmit(5)
	want += 5 * CostEmit
	if k.Now() != want {
		t.Fatalf("now = %g want %g", k.Now(), want)
	}
	c := k.Counters()
	if c.JoinProbes != 10 || c.JoinResults != 2 || c.SkylineCmps != 3 || c.CellOps != 4 || c.TuplesEmitted != 5 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestRegionAndCuboidCountersDoNotAdvanceClock(t *testing.T) {
	k := NewClock()
	k.CountRegionDone()
	k.CountRegionPruned()
	k.CountCuboidSubspace(3)
	if k.Now() != 0 {
		t.Fatalf("bookkeeping counters advanced the clock to %g", k.Now())
	}
	c := k.Counters()
	if c.RegionsDone != 1 || c.RegionsPruned != 1 || c.CuboidSubspace != 3 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{JoinProbes: 1, JoinResults: 2, SkylineCmps: 3, CellOps: 4,
		TuplesEmitted: 5, RegionsDone: 6, RegionsPruned: 7, CuboidSubspace: 8}
	b := a
	b.Add(a)
	if b.JoinProbes != 2 || b.JoinResults != 4 || b.SkylineCmps != 6 || b.CellOps != 8 ||
		b.TuplesEmitted != 10 || b.RegionsDone != 12 || b.RegionsPruned != 14 || b.CuboidSubspace != 16 {
		t.Fatalf("Add broken: %+v", b)
	}
}

func TestCountersString(t *testing.T) {
	c := Counters{JoinProbes: 42}
	if !strings.Contains(c.String(), "joinProbes=42") {
		t.Fatalf("String() = %q", c.String())
	}
}

func TestDeciCostsMatchFloatCosts(t *testing.T) {
	// The integer deci-unit costs driving the clock must agree with the
	// exported float cost constants used by the estimators.
	cases := []struct {
		name string
		deci int64
		cost float64
	}{
		{"probe", deciJoinProbe, CostJoinProbe},
		{"result", deciJoinResult, CostJoinResult},
		{"cmp", deciSkylineCmp, CostSkylineCmp},
		{"emit", deciEmit, CostEmit},
		{"cellop", deciCellProbe, CostCellProbe},
	}
	for _, c := range cases {
		if float64(c.deci) != c.cost*deciPerUnit {
			t.Errorf("%s: deci cost %d != %g units", c.name, c.deci, c.cost)
		}
	}
}

func TestCountersCost(t *testing.T) {
	c := Counters{JoinProbes: 10, JoinResults: 2, SkylineCmps: 3, CellOps: 4, TuplesEmitted: 5,
		RegionsDone: 9, RegionsPruned: 9, CuboidSubspace: 9} // bookkeeping: no cost
	want := 10*CostJoinProbe + 2*CostJoinResult + 3*CostSkylineCmp + 4*CostCellProbe + 5*CostEmit
	if got := c.Cost(); got != want {
		t.Fatalf("Cost() = %g, want %g", got, want)
	}
}

func TestVirtualSecondScale(t *testing.T) {
	// A contract expressed in seconds must correspond to a large number of
	// elementary operations; the exact constant is a free choice but must
	// exceed any single op cost by orders of magnitude.
	if VirtualSecond < 1000*CostJoinProbe {
		t.Fatalf("VirtualSecond %g too small relative to op costs", VirtualSecond)
	}
}
