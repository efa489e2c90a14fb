package main

import (
	"fmt"
	"runtime"
	"time"

	"caqe"
	"caqe/internal/contract"
	"caqe/internal/metrics"
	"caqe/internal/workload"
)

// batchSpec sizes one batch workload. A run executes the paper's 11-query
// d = 4 lattice workload once per timed iteration, over `datasets` input
// pairs drawn from the run's seed, `repeats` iterations on each. Many
// datasets per run because one is not enough: the skyline of an
// anti-correlated pair varies so much with the draw (comparisons ±9 %, wall
// time ±10 %, satisfaction ±8 % from seed to seed at these sizes) that two
// runs with different seeds would disagree by more than any useful bound.
type batchSpec struct {
	dist     caqe.Distribution
	n        int     // rows per relation
	sel      float64 // join selectivity
	tRef     float64 // contract time scale: about the workload's virtual end time
	datasets int     // per run at the reference length
	repeats  int     // timed iterations per dataset
}

var batchSpecs = map[string]batchSpec{
	// 73 M skyline comparisons for 98 K join results per iteration, 74 % of
	// CPU in skycube.(*SharedSkyline).insertAt; 1.4 s per iteration.
	"batch-anti": {dist: caqe.AntiCorrelated, n: 1400, sel: 0.05, tRef: 7900, datasets: 15, repeats: 1},
	// 324 K join results at 17 comparisons each; 0.46 s per iteration.
	"batch-indep": {dist: caqe.Independent, n: 2500, sel: 0.1, tRef: 950, datasets: 22, repeats: 2},
}

const batchQueries = 11

// sized returns the spec for this run: a fifth of the datasets when traced,
// toy sizes when quick.
func (s batchSpec) sized(cfg config) batchSpec {
	s.datasets = cfg.scale(s.datasets)
	if cfg.traced {
		s.datasets = (s.datasets + 4) / 5
	}
	if cfg.quick {
		s.n, s.tRef, s.datasets, s.repeats = 150, s.tRef/40, 2, 2
	}
	return s
}

// batchWorkload is the 11-query lattice workload of §7.2 with the five
// contract classes of Table 2 dealt round-robin: query i gets class
// C((i mod 5)+1), deadlines at 0.75·tRef, quotas of a tenth of the result
// per tRef/10.
func batchWorkload(tRef float64) *caqe.Workload {
	return workload.MustBenchmark(workload.BenchmarkConfig{
		NumQueries: batchQueries, Dims: 4, Priority: workload.HighDimsHigh,
		NewContract: func(i int) contract.Contract {
			switch i % 5 {
			case 0:
				return contract.C1(0.75 * tRef)
			case 1:
				return contract.C2()
			case 2:
				return contract.C3(0.75 * tRef)
			case 3:
				return contract.C4(0.1, tRef/10)
			default:
				return contract.C5(0.1, tRef/10)
			}
		},
	})
}

// datasetSeed derives the i-th dataset seed of a run. GeneratePair seeds T
// with seed+1, so consecutive values would share a relation.
func datasetSeed(seed int64, i int) int64 { return seed*1_000_003 + 10*int64(i) }

type dataset struct{ r, t *caqe.Relation }

func (s batchSpec) generate(seed int64, i int) (dataset, error) {
	r, t, err := caqe.GeneratePair(s.n, 4, s.dist, []float64{s.sel}, datasetSeed(seed, i))
	return dataset{r, t}, err
}

// iteration is what one timed caqe.Run yields. The report itself is not
// kept: its emissions point into the run's skyline arena and would pin all
// of it.
type iteration struct {
	done, ttfr, half time.Duration
	cpu              time.Duration     // of the benchmark process, over the iteration
	pace             paceFactor        // of the samples around the iteration
	results          [][]caqe.Emission // per query, coordinates copied out
	satisfaction     float64
	virtualS         float64
	counters         metrics.Counters
}

// runOnce executes the workload once, taking the client's view through the
// OnEmit hook: when each query saw its first result, and when half of all
// results had been delivered.
func runOnce(w *caqe.Workload, ds dataset, stamps []time.Duration, tr caqe.Tracer) (iteration, []time.Duration, error) {
	first := make([]time.Duration, len(w.Queries))
	seen := make([]bool, len(w.Queries))
	stamps = stamps[:0]
	start := time.Now()
	rep, err := caqe.Run(w, ds.r, ds.t, caqe.Options{Tracer: tr}, caqe.WithOnEmit(func(e caqe.Emission) {
		d := time.Since(start)
		if !seen[e.Query] {
			seen[e.Query], first[e.Query] = true, d
		}
		stamps = append(stamps, d)
	}))
	done := time.Since(start)
	if err != nil {
		return iteration{}, stamps, err
	}
	it := iteration{done: done, half: done, results: make([][]caqe.Emission, len(rep.PerQuery)),
		satisfaction: rep.AvgSatisfaction(), virtualS: rep.EndTime, counters: rep.Counters}
	for qi, ems := range rep.PerQuery {
		it.results[qi] = make([]caqe.Emission, len(ems))
		for i, e := range ems {
			e.Out = append([]float64(nil), e.Out...)
			it.results[qi][i] = e
		}
	}
	if len(stamps) > 0 {
		it.half = stamps[(len(stamps)+1)/2-1]
	}
	var sum time.Duration
	for qi := range first {
		if !seen[qi] {
			first[qi] = done
		}
		sum += first[qi]
	}
	it.ttfr = sum / time.Duration(len(first))
	return it, stamps, nil
}

// checkDataset certifies the result sets of one dataset's first iteration
// and requires every repeat to deliver the same sets with the same
// satisfaction and counters.
func checkDataset(o *outcome, w *caqe.Workload, ds dataset, di int, its []iteration) {
	ref := its[0]
	for _, err := range certify(w, ds.r, ds.t, ref.results) {
		if err != nil {
			o.fail(len(its), "dataset %d: %v", di, err)
		}
	}
	for k, it := range its[1:] {
		for qi := range w.Queries {
			if resultDigest(it.results[qi]) != resultDigest(ref.results[qi]) {
				o.fail(1, "dataset %d query %d: repeat %d delivered a different result set", di, qi, k+1)
			}
		}
		if it.satisfaction != ref.satisfaction || it.counters != ref.counters {
			o.fail(1, "dataset %d: repeat %d did not repeat exactly (satisfaction %v vs %v)", di, k+1, it.satisfaction, ref.satisfaction)
		}
	}
}

func runBatch(cfg config) (*outcome, error) {
	spec := batchSpecs[cfg.workload].sized(cfg)
	if cfg.traced {
		return batchLayers(cfg, spec)
	}
	o := newOutcome()
	w := batchWorkload(spec.tRef)

	// Set-up, several times over: generate a pair, derive the workload, and
	// run it once so that lazily built state and the heap have their
	// steady-state shape. The first repeat also carries process start and
	// the building of the pace kernel.
	pace := newHostPace()
	sets := make([]dataset, spec.datasets)
	var setups, rawSetups []float64
	var stamps []time.Duration
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		di := i % spec.datasets
		ds, err := spec.generate(cfg.seed, di)
		if err != nil {
			return nil, err
		}
		if _, stamps, err = runOnce(batchWorkload(spec.tRef), ds, stamps, nil); err != nil {
			return nil, err
		}
		sets[di] = ds
		took := time.Since(start).Seconds()
		rawSetups = append(rawSetups, took)
		setups = append(setups, took*referencePaceMS/pace.sample().wall)
	}
	o.set("setup_s", median(setups), len(setups))
	o.set("raw.setup_s", median(rawSetups), len(rawSetups))
	for di := range sets {
		if sets[di].r == nil {
			ds, err := spec.generate(cfg.seed, di)
			if err != nil {
				return nil, err
			}
			sets[di] = ds
		}
	}

	// Timed phase: a fixed number of iterations, round-robin over the
	// datasets, a pace sample between every two.
	runtime.GC()
	its := make([][]iteration, spec.datasets)
	phase := time.Now()
	before := pace.sample()
	for k := 0; k < spec.repeats; k++ {
		for di, ds := range sets {
			cpu0, err := selfCPU()
			if err != nil {
				return nil, err
			}
			var it iteration
			if it, stamps, err = runOnce(w, ds, stamps, nil); err != nil {
				return nil, err
			}
			if it.cpu, err = selfCPU(); err != nil {
				return nil, err
			}
			it.cpu -= cpu0
			after := pace.sample()
			it.pace = paceBetween(before, after)
			before = after
			its[di] = append(its[di], it)
		}
	}
	wall := time.Since(phase)
	rss, err := procPeakRSSMB("self")
	if err != nil {
		return nil, err
	}

	// Each metric is the mean over datasets of the median over that
	// dataset's repeats: the median sheds a disturbed iteration, the mean
	// is the steadiest summary of inputs that legitimately differ.
	perDataset := func(f func(iteration) float64) float64 {
		vals := make([]float64, len(its))
		for di := range its {
			reps := make([]float64, len(its[di]))
			for k, it := range its[di] {
				reps[k] = f(it)
			}
			vals[di] = median(reps)
		}
		return mean(vals)
	}
	n := spec.datasets * spec.repeats
	o.set("done_p50_ms", perDataset(func(it iteration) float64 { return ms(it.done) * it.pace.wall }), n)
	o.set("ttfr_p50_ms", perDataset(func(it iteration) float64 { return ms(it.ttfr) * it.pace.wall }), n)
	o.set("results_half_p50_ms", perDataset(func(it iteration) float64 { return ms(it.half) * it.pace.wall }), n)
	o.set("satisfaction", perDataset(func(it iteration) float64 { return it.satisfaction }), n)
	o.set("queries_per_s", perDataset(func(it iteration) float64 { return batchQueries / it.done.Seconds() / it.pace.wall }), n)
	o.set("cpu_ms_per_query", perDataset(func(it iteration) float64 { return ms(it.cpu) / batchQueries * it.pace.cpu }), n*batchQueries)
	o.set("peak_rss_mb", rss, 1)
	o.set("raw.done_p50_ms", perDataset(func(it iteration) float64 { return ms(it.done) }), n)
	o.set("raw.cpu_ms_per_query", perDataset(func(it iteration) float64 { return ms(it.cpu) / batchQueries }), n*batchQueries)
	o.set("pace_factor", perDataset(func(it iteration) float64 { return it.pace.wall }), n)
	o.set("pace_factor_cpu", perDataset(func(it iteration) float64 { return it.pace.cpu }), n)
	o.set("timed_phase_s", wall.Seconds(), 1)

	o.attempted = n * batchQueries
	emitted := int64(0)
	for di, ds := range sets {
		checkDataset(o, w, ds, di, its[di])
		emitted += its[di][0].counters.TuplesEmitted
	}
	o.notes = append(o.notes, fmt.Sprintf("repeats exactly: %d result tuples over %d datasets, satisfaction %.6f",
		emitted, spec.datasets, o.values["satisfaction"].value))
	return o, nil
}
