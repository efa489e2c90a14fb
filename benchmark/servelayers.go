package main

import (
	"fmt"
	"time"

	"caqe"
	"caqe/internal/cluster"
	"caqe/internal/contract"
	"caqe/internal/core"
	"caqe/internal/metrics"
	"caqe/internal/run"
	"caqe/internal/session"
	"caqe/internal/workload"
)

// serveVocabulary is the join-condition and output-dimension vocabulary
// caqe-serve derives from its flags (cmd/caqe-serve buildDataset).
func serveVocabulary(spec serveSpec) ([]caqe.EquiJoin, []caqe.MapFunc) {
	jcs := make([]caqe.EquiJoin, spec.keys)
	for k := range jcs {
		jcs[k] = caqe.EquiJoin{Name: fmt.Sprintf("JC%d", k), LeftKey: k, RightKey: k}
	}
	dims := make([]caqe.MapFunc, spec.dims)
	for d := range dims {
		dims[d] = caqe.SumDim(fmt.Sprintf("d%d", d), d)
	}
	return jcs, dims
}

// initialQuery is the query an in-process replay starts its execution
// with: serve-mutate's standing query, or the first ad-hoc query.
func initialQuery(spec serveSpec, queries []cluster.QuerySpec) (cluster.QuerySpec, []cluster.QuerySpec) {
	if spec.mutate {
		return standingQuery(spec), queries
	}
	return queries[0], queries[1:]
}

func tableOf(side int) core.Table {
	if side == 0 {
		return core.TableR
	}
	return core.TableT
}

// coreReplay pushes the run's query and mutation sequence through the
// engine's stepping handle alone — StartExec, then per cycle Append,
// Delete and Admit, each followed by Step until idle — and returns the
// per-operation wall times in milliseconds and the final counters.
type coreTimes struct {
	admit, appendMS, deleteMS []float64
	total                     time.Duration
	counters                  metrics.Counters
	virtualS                  float64
}

func coreReplay(spec serveSpec, seed int64, queries []cluster.QuerySpec, muts []mutation, tr caqe.Tracer) (coreTimes, error) {
	var ct coreTimes
	r, t, err := spec.relations(seed)
	if err != nil {
		return ct, err
	}
	jcs, dims := serveVocabulary(spec)
	first, rest := initialQuery(spec, queries)
	q0, err := first.Query()
	if err != nil {
		return ct, err
	}
	w := &workload.Workload{JoinConds: jcs, OutDims: dims, Queries: []workload.Query{q0}}
	opt := core.Options{WallClock: true, Tracer: tr}
	eng, err := core.New(w, r, t, opt)
	if err != nil {
		return ct, err
	}
	clock := opt.NewClock()
	rep := run.NewReport("CAQE", w, nil)
	rep.StartTrace(tr)
	begin := time.Now()
	x, err := eng.StartExec(clock, rep)
	if err != nil {
		return ct, err
	}
	idle := func() {
		for x.Step() {
		}
	}
	idle()
	for i, qs := range rest {
		if muts != nil {
			m := muts[i]
			start := time.Now()
			if _, _, err := x.Append(tableOf(m.side), m.rows); err != nil {
				return ct, err
			}
			idle()
			ct.appendMS = append(ct.appendMS, ms(time.Since(start)))
			if len(m.deletes) > 0 {
				start = time.Now()
				if _, err := x.Delete(tableOf(m.side), m.deletes); err != nil {
					return ct, err
				}
				idle()
				ct.deleteMS = append(ct.deleteMS, ms(time.Since(start)))
			}
		}
		q, err := qs.Query()
		if err != nil {
			return ct, err
		}
		start := time.Now()
		q.Contract = contract.Anchored(q.Contract, x.Now())
		local, err := x.Admit(q, 0)
		if err != nil {
			return ct, err
		}
		idle()
		ct.admit = append(ct.admit, ms(time.Since(start)))
		// A session seals every finished query; in a mutable execution
		// only sealed slots are reclaimed once all 64 are taken.
		if err := x.Seal(local); err != nil {
			return ct, err
		}
	}
	ct.total = time.Since(begin)
	x.Finish()
	ct.counters, ct.virtualS = rep.Counters, rep.EndTime
	return ct, nil
}

// sessionTimes is what the same sequence costs through internal/session
// without HTTP.
type sessionTimes struct {
	submit, ttfr, done, mutate []float64
	coalesced                  int64
}

func sessionReplay(spec serveSpec, seed int64, queries []cluster.QuerySpec, muts []mutation) (sessionTimes, error) {
	var st sessionTimes
	r, t, err := spec.relations(seed)
	if err != nil {
		return st, err
	}
	jcs, dims := serveVocabulary(spec)
	// The daemon's defaults (cmd/caqe-serve flags -max-buffered,
	// -max-buffered-total).
	s, err := session.Open(session.Config{
		R: r, T: t, JoinConds: jcs, OutDims: dims,
		Engine:          core.Options{WallClock: true},
		MaxConcurrent:   spec.maxConcurrent,
		Backpressure:    session.Backpressure{HighWater: 4096},
		GlobalHighWater: 65536,
	})
	if err != nil {
		return st, err
	}
	defer s.Close()

	var watch *probeWatch
	if spec.mutate {
		q, err := standingQuery(spec).Query()
		if err != nil {
			return st, err
		}
		h, err := s.Submit(q, 0)
		if err != nil {
			return st, err
		}
		if err := s.Start(); err != nil {
			return st, err
		}
		watch = newProbeWatch()
		go func() {
			defer close(watch.fin)
			for ev := range h.Events() {
				if ev.Lag == 0 {
					watch.observe(pairKey{ev.Emission.RID, ev.Emission.TID}, time.Now())
				}
			}
		}()
	}
	for i, qs := range queries {
		if muts != nil {
			m := muts[i]
			watch.expect(m.side, m.probeID)
			start := time.Now()
			if _, err := s.Mutate(session.Mutation{Table: m.table, Append: m.rows, Delete: m.deletes}); err != nil {
				return st, err
			}
			st.mutate = append(st.mutate, ms(time.Since(start)))
			if _, err := watch.await(); err != nil {
				return st, fmt.Errorf("session replay, cycle %d: %w", i, err)
			}
		}
		q, err := qs.Query()
		if err != nil {
			return st, err
		}
		start := time.Now()
		h, err := s.Submit(q, 0)
		if err != nil {
			return st, err
		}
		if err := s.Start(); err != nil {
			return st, err
		}
		st.submit = append(st.submit, ms(time.Since(start)))
		first := true
		for range h.Events() {
			if first {
				st.ttfr = append(st.ttfr, ms(time.Since(start)))
				first = false
			}
		}
		st.done = append(st.done, ms(time.Since(start)))
	}
	stats, err := s.Stats()
	if err != nil {
		return st, err
	}
	st.coalesced = stats.Delivery.Coalesced
	return st, nil
}

// serveLayers is the in-process half of a traced serve run: the sequence
// the daemon just served is replayed through core and through session, and
// the static layers are replayed on the daemon's dataset.
func (sr *serveRun) serveLayers(queries []cluster.QuerySpec, muts []mutation, r, t *caqe.Relation) error {
	o := sr.o
	plain, err := coreReplay(sr.spec, sr.cfg.seed, queries, muts, nil)
	if err != nil {
		return fmt.Errorf("core replay: %w", err)
	}
	tr := newWallTracer()
	traced, err := coreReplay(sr.spec, sr.cfg.seed, queries, muts, tr)
	if err != nil {
		return fmt.Errorf("traced core replay: %w", err)
	}
	if traced.counters.JoinResults != plain.counters.JoinResults || traced.counters.TuplesEmitted != plain.counters.TuplesEmitted {
		return fmt.Errorf("core replay: the traced replay did other work (%v) than the untraced one (%v)", &traced.counters, &plain.counters)
	}
	setPhases(o, []phaseTimes{attribute(tr.events)}, []metrics.Counters{traced.counters}, []float64{traced.virtualS})
	o.set("core.admit_ms_p50", median(plain.admit), len(plain.admit))
	o.set("core.append_ms_p50", median(plain.appendMS), len(plain.appendMS))
	o.set("core.delete_ms_p50", median(plain.deleteMS), len(plain.deleteMS))
	o.set("trace.overhead_pct", 100*(traced.total-plain.total).Seconds()/plain.total.Seconds(), 1)

	st, err := sessionReplay(sr.spec, sr.cfg.seed, queries, muts)
	if err != nil {
		return fmt.Errorf("session replay: %w", err)
	}
	o.set("session.submit_ms_p50", median(st.submit), len(st.submit))
	o.set("session.ttfr_ms_p50", median(st.ttfr), len(st.ttfr))
	o.set("session.done_ms_p50", median(st.done), len(st.done))
	o.set("session.mutate_ms_p50", median(st.mutate), len(st.mutate))
	o.set("session.coalesced", float64(st.coalesced), len(st.done))
	o.set("serve.http_self_ms", sr.httpDoneP50-median(st.done), len(st.done))

	// The static layers, on the daemon's initial dataset and a workload of
	// the sequence's first distinct (join condition, preference) combos.
	jcs, dims := serveVocabulary(sr.spec)
	w := &caqe.Workload{JoinConds: jcs, OutDims: dims}
	seen := map[uint64]bool{}
	for _, qs := range queries {
		if k := comboKey(qs); !seen[k] && len(w.Queries) < batchQueries {
			seen[k] = true
			q, err := qs.Query()
			if err != nil {
				return err
			}
			w.Queries = append(w.Queries, q)
		}
	}
	return layerReplays(o, w, dataset{r, t})
}
