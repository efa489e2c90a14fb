package baseline

import (
	"caqe/internal/core"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/run"
	"caqe/internal/skyline"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// TimeSharedQuantum is the number of join probes one query executes per
// round-robin slice of the time-shared executor.
const TimeSharedQuantum = 2048

// timeShared implements the classical *time-shared* multi-query processing
// approach of §1.3 [22]: the available processing time is divided into
// slices allocated to the queries in round-robin fashion. Each query is
// evaluated completely independently — a nested-loop join of the rows the
// join-group filter keeps (core.Survivors, like every strategy) feeding an
// incremental BNL skyline window, with no sharing of common
// sub-expressions — and, the skyline being blocking, delivers its results
// only when its own evaluation completes. The paper argues this approach is
// not practical for resource-intensive skyline-over-join workloads (§1.3);
// this implementation lets that claim be measured. Every round-robin slice
// grant is traced as one scheduling decision.
func timeShared(w *workload.Workload, r, t *tuple.Relation, clock *metrics.Clock, rep *run.Report) error {
	rs, ts := core.Survivors(w, r, t, clock)

	tasks := make([]*tsTask, len(w.Queries))
	for qi, q := range w.Queries {
		jc := w.JoinConds[q.JC]
		tasks[qi] = &tsTask{
			query: qi,
			jc:    jc,
			fs:    w.OutDims,
			pref:  q.Pref,
			kern:  preference.NewKernel(q.Pref),
			rs:    rs[jc.LeftKey],
			ts:    ts[jc.RightKey],
		}
	}

	remaining := len(tasks)
	for remaining > 0 {
		for _, task := range tasks {
			if task.done {
				continue
			}
			traceQueryDecision(rep, clock, task.query)
			task.advance(TimeSharedQuantum, clock)
			if task.done {
				remaining--
				now := clock.Now() / metrics.VirtualSecond
				for _, p := range task.window {
					clock.CountEmit(1)
					jr := task.kept[p.Payload]
					rep.Emit(run.Emission{Query: task.query, RID: jr.RID, TID: jr.TID, Out: jr.Out, Time: now})
				}
			}
		}
	}
	return nil
}

// tsTask is the resumable evaluation state of one query: a nested-loop join
// cursor over R×T plus an incremental BNL skyline window.
type tsTask struct {
	query  int
	jc     join.EquiJoin
	fs     []join.MapFunc
	pref   preference.Subspace
	kern   preference.Kernel
	rs, ts []*tuple.Tuple

	i, j   int // join cursor
	window []skyline.Point
	kept   []join.Result // window payloads index this slice
	done   bool
}

// advance runs up to `quantum` join probes, feeding matches through the
// skyline window.
func (k *tsTask) advance(quantum int, clock *metrics.Clock) {
	for probes := 0; probes < quantum; probes++ {
		if k.i >= len(k.rs) {
			k.done = true
			return
		}
		r, t := k.rs[k.i], k.ts[k.j]
		clock.CountJoinProbe(1)
		if k.jc.Matches(r, t) {
			clock.CountJoinResult(1)
			res := join.Result{RID: r.ID, TID: t.ID, Out: join.Project(k.fs, r, t)}
			k.insert(res, clock)
		}
		k.j++
		if k.j >= len(k.ts) {
			k.j = 0
			k.i++
		}
	}
	if k.i >= len(k.rs) {
		k.done = true
	}
}

// insert adds one join result to the BNL window.
func (k *tsTask) insert(res join.Result, clock *metrics.Clock) {
	p := skyline.Point{Vals: res.Out, Payload: len(k.kept)}
	dominated := false
	keep := k.window[:0]
	for _, w := range k.window {
		if dominated {
			keep = append(keep, w)
			continue
		}
		clock.CountSkylineCmp(1)
		switch k.kern.Compare(w.Vals, p.Vals) {
		case -1:
			dominated = true
			keep = append(keep, w)
		case 1:
			// evicted
		default:
			keep = append(keep, w)
		}
	}
	k.window = keep
	if !dominated {
		k.window = append(k.window, p)
		k.kept = append(k.kept, res)
	}
}
