package baseline

import (
	"caqe/internal/core"
	"caqe/internal/join"
	"caqe/internal/metrics"
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
			query:  qi,
			jc:     jc,
			fs:     w.OutDims,
			rs:     rs[jc.LeftKey],
			ts:     ts[jc.RightKey],
			window: skyline.NewWindow[join.Result](q.Pref, clock),
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
				for _, jr := range task.window.Items() {
					clock.CountEmit(1)
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
	rs, ts []*tuple.Tuple

	i, j   int // join cursor
	window *skyline.Window[join.Result]
	done   bool
}

// advance runs up to `quantum` join probes, feeding matches through the
// skyline window.
func (k *tsTask) advance(quantum int, clock *metrics.Clock) {
	for probes := 0; probes < quantum; probes++ {
		if k.i >= len(k.rs) || len(k.ts) == 0 {
			k.done = true
			return
		}
		r, t := k.rs[k.i], k.ts[k.j]
		clock.CountJoinProbe(1)
		if k.jc.Matches(r, t) {
			clock.CountJoinResult(1)
			out := join.Project(k.fs, r, t)
			k.window.Insert(out, join.Result{RID: r.ID, TID: t.ID, Out: out})
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
