package main

import (
	"fmt"
	"time"

	"caqe"
	"caqe/internal/cluster"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/partition"
	"caqe/internal/preference"
	"caqe/internal/region"
	"caqe/internal/skycube"
)

// The engine's default plan granularity (core.Options.withDefaults): the
// replays below build the same plan the measured runs execute.
const (
	defaultTargetCells    = 24
	defaultGridResolution = 64
)

// medianMS times fn `repeats` times and returns the median in milliseconds.
func medianMS(repeats int, fn func()) float64 {
	vals := make([]float64, repeats)
	for i := range vals {
		start := time.Now()
		fn()
		vals[i] = ms(time.Since(start))
	}
	return median(vals)
}

// setPhases reports the wall-clock split of traced executions, per
// execution, and the counts the split is built from.
func setPhases(o *outcome, pts []phaseTimes, counters []metrics.Counters, virtualS []float64) {
	n := len(pts)
	var sched, jn, dom, decisions, deferrals, cmps, probes, results []float64
	for i, pt := range pts {
		sched = append(sched, ms(pt.sched))
		jn = append(jn, ms(pt.join))
		dom = append(dom, ms(pt.dominance))
		decisions = append(decisions, float64(pt.decisions))
		deferrals = append(deferrals, float64(pt.deferrals))
		cmps = append(cmps, float64(counters[i].SkylineCmps))
		probes = append(probes, float64(counters[i].JoinProbes))
		results = append(results, float64(counters[i].JoinResults))
	}
	o.set("core.decisions", mean(decisions), n)
	o.set("core.deferrals", mean(deferrals), n)
	o.set("core.virtual_s", mean(virtualS), n)
	o.set("core.sched_ms", mean(sched), n)
	o.set("core.op_join_ms", mean(jn), n)
	o.set("core.op_dominance_ms", mean(dom), n)
	o.set("skycube.cmps", mean(cmps), n)
	o.set("join.probes", mean(probes), n)
	o.set("join.results", mean(results), n)
}

// layerReplays times single layers on one workload and input pair by
// calling them directly, outside any engine run: partitioning, the
// region space, the tuple-level joins of every live region, the shared
// skyline fed with those join results, and the bare dominance test.
func layerReplays(o *outcome, w *caqe.Workload, ds dataset) error {
	const repeats = 5
	var rcells, tcells []*partition.Cell
	var err error
	o.set("partition.build_ms", medianMS(repeats, func() {
		if rcells, err = partition.Partition(ds.r, partition.DefaultOptions(ds.r.Len(), defaultTargetCells)); err != nil {
			return
		}
		tcells, err = partition.Partition(ds.t, partition.DefaultOptions(ds.t.Len(), defaultTargetCells))
	}), repeats)
	if err != nil {
		return err
	}
	o.set("partition.cells", float64(len(rcells)+len(tcells)), 1)

	var space *region.Space
	var clock *metrics.Clock
	o.set("region.build_ms", medianMS(repeats, func() {
		clock = metrics.NewClock()
		space, err = region.BuildSpace(w, rcells, tcells, region.Options{GridResolution: defaultGridResolution}, clock)
	}), repeats)
	if err != nil {
		return err
	}
	o.set("region.regions", float64(len(space.Regions)), 1)
	o.set("region.pruned", float64(clock.Counters().RegionsPruned), 1)
	o.set("region.cellops", float64(clock.Counters().CellOps), 1)

	// Joins: every live region's cell pair under every condition that
	// passed its signature test. The results are kept for the skyline
	// replay (the scratch buffers are recycled by the next call).
	type joined struct {
		out     []float64
		lineage skycube.QSet
	}
	var scratch join.Scratch
	var results []joined
	jclock := metrics.NewClock()
	var joinTime time.Duration
	for _, rg := range space.Regions {
		if rg.Alive == 0 {
			continue
		}
		for j, jc := range w.JoinConds {
			lineage := w.QueriesWithJC(j) & rg.Alive
			if rg.JCPass&(1<<uint(j)) == 0 || lineage == 0 {
				continue
			}
			start := time.Now()
			res := scratch.NestedLoop(jc, w.OutDims, rg.RCell.Tuples, rg.TCell.Tuples, jclock)
			joinTime += time.Since(start)
			for _, r := range res {
				results = append(results, joined{append([]float64(nil), r.Out...), lineage})
			}
		}
	}
	o.set("join.replay_ms", ms(joinTime), 1)
	if p := jclock.Counters().JoinProbes; p > 0 {
		o.set("join.ns_per_probe", float64(joinTime.Nanoseconds())/float64(p), int(p))
	}
	if len(results) == 0 {
		return fmt.Errorf("layer replay: the plan's live regions join to nothing")
	}

	cuboid, err := skycube.BuildCuboid(w.Prefs())
	if err != nil {
		return err
	}
	var sclock *metrics.Clock
	insertMS := medianMS(3, func() {
		sclock = metrics.NewClock()
		shared := skycube.NewSharedSkyline(cuboid, sclock)
		for p, r := range results {
			shared.Insert(p, r.out, r.lineage)
		}
	})
	o.set("skycube.insert_replay_ms", insertMS, 3)
	if c := sclock.Counters().SkylineCmps; c > 0 {
		o.set("skycube.ns_per_cmp", insertMS*1e6/float64(c), int(c))
	}

	// The bare dominance test, in the workload's widest preference, over a
	// fixed pseudo-random pairing of the first join results — few enough to
	// stay in cache, so that the kernel is timed and not the memory.
	widest := w.Queries[0].Pref
	for _, q := range w.Queries {
		if len(q.Pref) > len(widest) {
			widest = q.Pref
		}
	}
	kern := preference.NewKernel(widest)
	const pairs = 4_000_000
	sample := results[:min(1024, len(results))]
	hits := 0
	start := time.Now()
	for i := 0; i < pairs; i++ {
		a, b := sample[i%len(sample)].out, sample[(i*7919+1)%len(sample)].out
		if kern.Dominates(a, b) {
			hits++
		}
	}
	o.set("preference.dominates_ns", float64(time.Since(start).Nanoseconds())/pairs, pairs)
	o.notes = append(o.notes, fmt.Sprintf("dominance replay: %d of %d sampled pairs dominate", hits, pairs))
	return nil
}

// clusterReplay times a 2-shard scatter–gather run of the workload and,
// separately, the coordinator's dominance merge over the candidates the
// two shards produce.
func clusterReplay(o *outcome, w *caqe.Workload, ds dataset) error {
	const shards = 2
	var stats *cluster.RunStats
	start := time.Now()
	_, stats, err := cluster.Run(w, ds.r, ds.t, cluster.Options{Shards: shards})
	if err != nil {
		return err
	}
	o.set("cluster.run2_ms", ms(time.Since(start)), 1)
	o.set("cluster.merge_cmps", float64(stats.MergeCmps), 1)

	// Gather by hand what cluster.Run gathers internally, so that Merge can
	// be timed alone.
	m, err := cluster.NewShardMap(shards, "")
	if err != nil {
		return err
	}
	parts, table := m.Partition(ds.r)
	cands := make([][][]cluster.Candidate, len(w.Queries))
	for qi := range cands {
		cands[qi] = make([][]cluster.Candidate, shards)
	}
	for s, part := range parts {
		rep, err := caqe.Run(w, part, ds.t, caqe.Options{})
		if err != nil {
			return err
		}
		for qi, ems := range rep.PerQuery {
			for _, e := range ems {
				e.RID = table[s][e.RID]
				cands[qi][s] = append(cands[qi][s], cluster.Candidate{Shard: s, Emission: e})
			}
		}
	}
	clock := metrics.NewClock()
	start = time.Now()
	for qi, q := range w.Queries {
		kern := preference.NewKernel(q.Pref)
		cluster.Merge(&kern, cands[qi], clock, nil, "CAQE", qi)
	}
	o.set("cluster.merge_ms", ms(time.Since(start)), 1)
	if got := clock.Counters().SkylineCmps; got != stats.MergeCmps {
		return fmt.Errorf("cluster replay: hand-gathered merge made %d comparisons, cluster.Run %d", got, stats.MergeCmps)
	}
	return nil
}

// batchLayers is the traced run of a batch workload: every dataset is
// executed once without and once with the benchmark's tracer, and the
// layers are then replayed one at a time on the first dataset.
func batchLayers(cfg config, spec batchSpec) (*outcome, error) {
	o := newOutcome()
	w := batchWorkload(spec.tRef)
	var stamps []time.Duration
	var pts []phaseTimes
	var counters []metrics.Counters
	var virtualS, plain, traced []float64
	var first dataset
	for di := 0; di < spec.datasets; di++ {
		ds, err := spec.generate(cfg.seed, di)
		if err != nil {
			return nil, err
		}
		if di == 0 {
			first = ds
			if _, stamps, err = runOnce(w, ds, stamps, nil); err != nil { // warm-up
				return nil, err
			}
		}
		var a, b iteration
		if a, stamps, err = runOnce(w, ds, stamps, nil); err != nil {
			return nil, err
		}
		tr := newWallTracer()
		if b, stamps, err = runOnce(w, ds, stamps, tr); err != nil {
			return nil, err
		}
		plain = append(plain, ms(a.done))
		traced = append(traced, ms(b.done))
		pts = append(pts, attribute(tr.events))
		counters = append(counters, b.counters)
		virtualS = append(virtualS, b.virtualS)
		o.attempted += 2 * batchQueries
		checkDataset(o, w, ds, di, []iteration{a, b})
	}
	setPhases(o, pts, counters, virtualS)
	o.set("trace.overhead_pct", 100*(mean(traced)-mean(plain))/mean(plain), len(plain))
	if err := layerReplays(o, w, first); err != nil {
		return nil, err
	}
	if err := clusterReplay(o, w, first); err != nil {
		return nil, err
	}
	return o, nil
}
