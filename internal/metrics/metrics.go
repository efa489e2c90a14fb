// Package metrics provides operation counters and the deterministic virtual
// clock that drives every execution strategy in this repository.
//
// The paper evaluates CAQE with wall-clock time on a fixed workstation. A
// reproduction cannot match absolute hardware timings, but every quantity the
// paper reports (utility decay, satisfaction percentages, relative execution
// time) depends only on the *relative* order and spacing of result emissions,
// which in turn is a deterministic function of the work performed. We
// therefore advance a virtual clock by a fixed cost per elementary operation:
// join-pair probes, skyline dominance comparisons, and tuple emissions. All
// contract parameters are expressed in the same virtual time unit.
//
// # Determinism contract
//
// The clock accumulates time as an exact integer count of deci-units (one
// tenth of a virtual unit), of which every operation cost is a whole
// multiple. Integer addition is associative and exact, so the clock reading
// after a set of counted operations depends only on the operation *totals* —
// never on the order they were counted in, and never on floating-point
// rounding.
package metrics

import (
	"fmt"
	"time"
)

// Cost of each elementary operation in virtual time units. One unit is
// nominally "one virtual microsecond"; contracts use VirtualSecond.
const (
	CostJoinProbe  = 1.0 // evaluating one candidate tuple pair against a join condition
	CostJoinResult = 2.0 // materializing a join result and applying mapping functions
	CostSkylineCmp = 1.0 // one pairwise dominance comparison
	CostEmit       = 0.5 // reporting one result tuple to a consumer
	CostCellProbe  = 0.2 // one coarse (cell- or region-level) operation
)

// Integer operation costs in clock deci-units (tenths of a virtual unit).
// Every Cost* constant above is a whole number of deci-units, which is what
// keeps the clock exact (see the package comment).
const (
	deciJoinProbe  = 10
	deciJoinResult = 20
	deciSkylineCmp = 10
	deciEmit       = 5
	deciCellProbe  = 2
	deciPerUnit    = 10
)

// VirtualSecond is the number of virtual time units per "second" used when
// expressing contract deadlines (e.g. t_C1 = 10 * VirtualSecond).
const VirtualSecond = 10000.0

// Counters tallies the elementary operations of one execution run. The
// zero value is ready to use.
type Counters struct {
	JoinProbes     int64 // candidate pairs tested against a join condition
	JoinResults    int64 // join results materialized (the paper's "memory usage")
	SkylineCmps    int64 // pairwise dominance comparisons (the paper's "CPU usage")
	CellOps        int64 // coarse-granularity operations (signatures, region dominance)
	TuplesEmitted  int64 // result tuples reported to consumers
	RegionsDone    int64 // regions fully processed at tuple level
	RegionsPruned  int64 // regions discarded without tuple-level processing
	CuboidSubspace int64 // subspaces materialized in the shared plan
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.JoinProbes += o.JoinProbes
	c.JoinResults += o.JoinResults
	c.SkylineCmps += o.SkylineCmps
	c.CellOps += o.CellOps
	c.TuplesEmitted += o.TuplesEmitted
	c.RegionsDone += o.RegionsDone
	c.RegionsPruned += o.RegionsPruned
	c.CuboidSubspace += o.CuboidSubspace
}

// cost returns the total virtual-time cost of the counted operations in
// exact integer deci-units. Region and cuboid bookkeeping counters carry no
// time cost, mirroring the per-operation Count methods of Clock.
func (c Counters) cost() int64 {
	return c.JoinProbes*deciJoinProbe +
		c.JoinResults*deciJoinResult +
		c.SkylineCmps*deciSkylineCmp +
		c.CellOps*deciCellProbe +
		c.TuplesEmitted*deciEmit
}

// Cost returns the total virtual-time cost of the counted operations in
// virtual units — the amount a clock advances when it counts them.
func (c Counters) Cost() float64 { return float64(c.cost()) / deciPerUnit }

// String renders the counters in a compact single line.
func (c *Counters) String() string {
	return fmt.Sprintf("joinProbes=%d joinResults=%d skylineCmps=%d cellOps=%d emitted=%d regions(done=%d pruned=%d)",
		c.JoinProbes, c.JoinResults, c.SkylineCmps, c.CellOps, c.TuplesEmitted, c.RegionsDone, c.RegionsPruned)
}

// Clock is the deterministic virtual clock. It is advanced explicitly by the
// executors as they perform counted work, so two runs of the same strategy on
// the same input always produce identical timestamps. Time is held as an
// exact integer count of deci-units; see the package comment for why that
// makes clock readings independent of counting order and batching.
//
// A Clock is not safe for concurrent use.
type Clock struct {
	deci     int64 // accumulated work in deci-units (tenths of a virtual unit)
	counters Counters

	// nowNS, when set, switches the clock into wall mode: Now() reads this
	// monotonic nanosecond source instead of the work accumulator. Counted
	// work still accumulates in deci (exposed via WorkUnits) so measured
	// processing rates can be derived, but it no longer defines "now".
	nowNS func() int64
}

// NewClock returns a virtual clock at time zero.
func NewClock() *Clock { return &Clock{} }

// NewWallClock returns a clock in wall mode: Now() tracks real elapsed time
// from this call, scaled so that one VirtualSecond of clock units equals one
// real second. Contract deadlines expressed in "seconds" therefore become
// real-time deadlines. Counted work still accumulates (see WorkUnits) and
// still defines measured processing rates, but it no longer advances Now().
//
// A wall clock gives up the determinism contract of the virtual clock: two
// runs produce different timestamps. Counters remain deterministic.
func NewWallClock() *Clock {
	start := time.Now()
	return NewWallClockFunc(func() int64 { return int64(time.Since(start)) })
}

// NewWallClockFunc returns a wall-mode clock reading elapsed monotonic
// nanoseconds from nowNS — the injection point that lets tests drive wall
// mode deterministically.
func NewWallClockFunc(nowNS func() int64) *Clock {
	if nowNS == nil {
		return NewWallClock()
	}
	return &Clock{nowNS: nowNS}
}

// Wall reports whether the clock is in wall mode.
func (k *Clock) Wall() bool { return k.nowNS != nil }

// Now returns the current time in virtual units: counted work in virtual
// mode, elapsed real seconds times VirtualSecond in wall mode. Either way,
// Now()/VirtualSecond is "seconds" in the sense contracts use.
func (k *Clock) Now() float64 {
	if k.nowNS != nil {
		return float64(k.nowNS()) / 1e9 * VirtualSecond
	}
	return float64(k.deci) / deciPerUnit
}

// WorkUnits returns the accumulated counted work in virtual units,
// regardless of mode. In virtual mode this equals Now(); in wall mode it is
// the numerator of the measured processing rate (work units per real
// second).
func (k *Clock) WorkUnits() float64 { return float64(k.deci) / deciPerUnit }

// Advance moves the clock forward by d virtual units, rounded to the nearest
// deci-unit. Negative d is ignored.
func (k *Clock) Advance(d float64) {
	if d > 0 {
		k.deci += int64(float64(d*deciPerUnit) + 0.5)
	}
}

// Counters returns a snapshot of the operation counters.
func (k *Clock) Counters() Counters { return k.counters }

// CountJoinProbe records n candidate-pair evaluations.
func (k *Clock) CountJoinProbe(n int64) {
	k.counters.JoinProbes += n
	k.deci += n * deciJoinProbe
}

// CountJoinResult records n materialized join results.
func (k *Clock) CountJoinResult(n int64) {
	k.counters.JoinResults += n
	k.deci += n * deciJoinResult
}

// CountSkylineCmp records n pairwise dominance comparisons.
func (k *Clock) CountSkylineCmp(n int64) {
	k.counters.SkylineCmps += n
	k.deci += n * deciSkylineCmp
}

// CountCellOp records n coarse-granularity operations.
func (k *Clock) CountCellOp(n int64) {
	k.counters.CellOps += n
	k.deci += n * deciCellProbe
}

// CountEmit records n emitted result tuples.
func (k *Clock) CountEmit(n int64) {
	k.counters.TuplesEmitted += n
	k.deci += n * deciEmit
}

// CountRegionDone records completion of tuple-level processing of a region.
func (k *Clock) CountRegionDone() { k.counters.RegionsDone++ }

// CountRegionPruned records a region discarded before tuple-level processing.
func (k *Clock) CountRegionPruned() { k.counters.RegionsPruned++ }

// CountCuboidSubspace records materialization of a shared-plan subspace.
func (k *Clock) CountCuboidSubspace(n int64) { k.counters.CuboidSubspace += n }
