package main

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"caqe"
	"caqe/internal/cluster"
	"caqe/internal/datagen"
	"caqe/internal/trace"
)

// serverConfig describes the served dataset, admission limits and
// delivery-side backpressure.
type serverConfig struct {
	N, Dims, Keys int
	Dist          string
	Sel           float64
	Seed          int64
	MaxConcurrent int
	TargetCells   int

	// ShardCount > 1 runs this node as shard ShardIndex of an N-shard
	// cluster: the node generates the full dataset from the shared
	// parameters, keeps only its partition of R (T is replicated), and
	// serves it like any other session. Partition selects the strategy
	// ("range" or "hash", default range) and must match the coordinator's.
	ShardIndex, ShardCount int
	Partition              string

	// Clock selects the engine clock: "virtual" (default; deterministic,
	// contract deadlines in virtual seconds) or "wall" (real time; contract
	// deadlines are wall deadlines and Eq. 11 feedback runs off measured
	// processing rates).
	Clock string

	// MaxBuffered is the per-query delivery-buffer high-water mark
	// (0 = unbounded); BufferPolicy selects what happens past it
	// ("block-executor-never" or "disconnect-slow", empty = the former).
	MaxBuffered  int
	BufferPolicy string
	// MaxBufferedTotal sheds new submissions with 503 while the aggregate
	// buffered-emission count is at or above it (0 = no shedding).
	MaxBufferedTotal int

	frontConfig

	// noAutoStart keeps submitted queries queued instead of starting
	// execution on first admission; tests use it to pin down admission-cap
	// behavior without racing the executor.
	noAutoStart bool
}

// server wires one online CAQE session to HTTP handlers. All shared state
// lives in the session, which is safe for concurrent use.
type server struct {
	front
	sess      *caqe.Session
	autoStart bool
	sharded   bool // one shard of a cluster: base tables are read-only
	agg       *trace.Aggregator
	wallClock bool
}

// buildDataset generates the served pair and the query vocabulary — one
// join condition per key column, one summed output dimension per attribute.
// Shard nodes and in-process coordinator shards call it with the same
// shared parameters and therefore see the same data.
func buildDataset(n, dims, keys int, distName string, sel float64, seed int64) (r, t *caqe.Relation, joinConds []caqe.EquiJoin, outDims []caqe.MapFunc, err error) {
	if distName == "" {
		distName = "independent"
	}
	dist, err := datagen.ParseDistribution(strings.ToLower(distName))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if keys < 1 {
		return nil, nil, nil, nil, fmt.Errorf("need at least one key column, got %d", keys)
	}
	sels := make([]float64, keys)
	for i := range sels {
		sels[i] = sel
	}
	r, t, err = caqe.GeneratePair(n, dims, dist, sels, seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	joinConds = make([]caqe.EquiJoin, keys)
	for k := range joinConds {
		joinConds[k] = caqe.EquiJoin{Name: fmt.Sprintf("JC%d", k), LeftKey: k, RightKey: k}
	}
	outDims = make([]caqe.MapFunc, dims)
	for d := range outDims {
		outDims[d] = caqe.SumDim(fmt.Sprintf("d%d", d), d)
	}
	return r, t, joinConds, outDims, nil
}

func newServer(cfg serverConfig) (*server, error) {
	var wall bool
	switch strings.ToLower(cfg.Clock) {
	case "", "virtual":
	case "wall":
		wall = true
	default:
		return nil, fmt.Errorf("unknown clock mode %q (virtual or wall)", cfg.Clock)
	}
	if cfg.MaxConcurrent < 0 || cfg.MaxConcurrent > caqe.MaxConcurrentQueries {
		return nil, fmt.Errorf("max-concurrent %d outside [0, %d] (0 = engine limit)",
			cfg.MaxConcurrent, caqe.MaxConcurrentQueries)
	}
	r, t, joinConds, outDims, err := buildDataset(cfg.N, cfg.Dims, cfg.Keys, cfg.Dist, cfg.Sel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.ShardCount > 1 {
		if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount {
			return nil, fmt.Errorf("shard index %d outside [0, %d)", cfg.ShardIndex, cfg.ShardCount)
		}
		m, err := cluster.NewShardMap(cfg.ShardCount, cluster.Strategy(cfg.Partition))
		if err != nil {
			return nil, err
		}
		parts, _ := m.Partition(r)
		r = parts[cfg.ShardIndex]
	}

	// The aggregator feeds /metrics with live trace-event counts; tracing
	// performs no counted work, so serving with it attached stays
	// byte-identical to an untraced run.
	agg := trace.NewAggregator(nil, nil)
	f := newFront(cfg.frontConfig)
	sess, err := caqe.OpenSession(caqe.SessionConfig{
		R: r, T: t,
		JoinConds:     joinConds,
		OutDims:       outDims,
		Engine:        caqe.Options{TargetCells: cfg.TargetCells, WallClock: wall, Tracer: agg},
		MaxConcurrent: cfg.MaxConcurrent,
		Backpressure: caqe.SessionBackpressure{
			HighWater: cfg.MaxBuffered,
			Policy:    caqe.SessionDeliveryPolicy(cfg.BufferPolicy),
		},
		GlobalHighWater: cfg.MaxBufferedTotal,
		OnFirstResult:   func(id int, seconds float64) { f.sm.ttfr.Observe(seconds) },
	})
	if err != nil {
		return nil, err
	}
	return &server{
		front: f, sess: sess, autoStart: !cfg.noAutoStart, sharded: cfg.ShardCount > 1,
		agg: agg, wallClock: wall,
	}, nil
}

// drain closes the session, running every open query to completion; result
// streams receive their tails and close.
func (s *server) drain() { _ = s.sess.Close() }

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "POST /queries", s.handleSubmit)
	s.route(mux, "GET /queries/{id}", s.handleStatus)
	s.route(mux, "DELETE /queries/{id}", s.handleCancel)
	s.route(mux, "GET /queries/{id}/results", s.handleResults)
	if !s.sharded {
		// The coordinator translates a shard's row IDs by pure (n, N,
		// strategy) arithmetic; mutating one shard would silently
		// invalidate it, so a shard node serves no /data routes.
		s.route(mux, "POST /data/{table}", s.handleMutate)
		s.route(mux, "DELETE /data/{table}/{id}", s.handleDeleteRow)
	}
	s.route(mux, "GET /stats", s.handleStats)
	s.route(mux, "GET /healthz", s.handleHealthz)
	s.route(mux, "GET /metrics", s.metricsHandler(s.sessionFamilies))
	return mux
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req cluster.QuerySpec
	if !s.decodeBody(w, r, &req) {
		return
	}
	q, err := req.Query()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	h, err := s.sess.Submit(q, req.EstTotal)
	if err != nil {
		if errors.Is(err, caqe.ErrSessionOverloaded) {
			s.sm.loadShed.Add(1)
			s.logger.Printf("caqe-serve: shedding submission %q: %v", q.Name, err)
		}
		s.fail(w, errStatus(err), err)
		return
	}
	if s.autoStart {
		// Begin executing as soon as the first query lands; later
		// submissions are admitted into the already-running plan. Idempotent
		// after the first call.
		_ = s.sess.Start()
	}
	writeJSON(w, http.StatusCreated, submitReply(h))
}

func submitReply(h *caqe.SessionHandle) cluster.SubmitReply {
	return cluster.SubmitReply{ID: h.ID(), Name: h.Name(), State: h.State(), Arrival: h.Arrival()}
}

func (s *server) handle(w http.ResponseWriter, r *http.Request) (*caqe.SessionHandle, bool) {
	id, ok := s.pathID(w, r, "query")
	if !ok {
		return nil, false
	}
	h, err := s.sess.Query(id)
	if err != nil {
		status := http.StatusNotFound
		if errors.Is(err, caqe.ErrSessionClosed) {
			status = http.StatusServiceUnavailable
		}
		s.fail(w, status, err)
		return nil, false
	}
	return h, true
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	h, ok := s.handle(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, submitReply(h))
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	h, ok := s.handle(w, r)
	if !ok {
		return
	}
	if err := s.sess.Cancel(h.ID()); err != nil && !errors.Is(err, caqe.ErrSessionClosed) {
		status := errStatus(err)
		if status == http.StatusBadRequest {
			status = http.StatusInternalServerError
		}
		s.fail(w, status, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// mutateRequest is the POST /data/{table} body: rows to append and/or row
// IDs to delete, optionally anchored at a virtual time. The table comes
// from the path.
type mutateRequest struct {
	Rows     []caqe.TupleData `json:"rows,omitempty"`
	Delete   []int            `json:"delete,omitempty"`
	AnchorAt float64          `json:"anchorAt,omitempty"`
}

// handleMutate applies (or queues, when anchored in the future) one batch
// of base-table changes. The response carries the row IDs reserved for
// the appended rows and whether the mutation has already applied.
func (s *server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req mutateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.mutate(w, caqe.SessionMutation{
		Table:    r.PathValue("table"),
		Append:   req.Rows,
		Delete:   req.Delete,
		AnchorAt: req.AnchorAt,
	})
}

// handleDeleteRow retires one row: DELETE /data/{table}/{id}.
func (s *server) handleDeleteRow(w http.ResponseWriter, r *http.Request) {
	id, ok := s.pathID(w, r, "row")
	if !ok {
		return
	}
	s.mutate(w, caqe.SessionMutation{Table: r.PathValue("table"), Delete: []int{id}})
}

func (s *server) mutate(w http.ResponseWriter, m caqe.SessionMutation) {
	res, err := s.sess.Mutate(m)
	if err != nil {
		s.fail(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleResults streams a query's guaranteed-final results until its
// result set is complete (or it is cancelled). The default framing is
// NDJSON — one Emission per line, interleaved {"lag":n} notices when the
// client lags, and a final {"done":...,"state":...} record; clients
// sending Accept: text/event-stream get SSE frames instead (data, lag and
// done events). Each result is flushed as it becomes final, so the stream
// is as progressive as the engine's emission schedule. Every write carries
// a deadline: a client that stalls past it fails the write, which is
// logged, counted in the metrics, and abandons the stream without touching
// the query.
func (s *server) handleResults(w http.ResponseWriter, r *http.Request) {
	h, ok := s.handle(w, r)
	if !ok {
		return
	}
	st := s.openStream(w, h.ID(), strings.Contains(r.Header.Get("Accept"), "text/event-stream"))
	defer st.clearDeadline()
	ctx := r.Context()
	for {
		select {
		case ev, open := <-h.Events():
			var ok bool
			switch {
			case !open:
				ss := h.StreamStats()
				end := cluster.StreamEnd{Done: true, State: h.State(), Coalesced: ss.Coalesced}
				if ss.Disconnected {
					end.Done = false
					end.Reason = "slow-consumer"
				}
				ok = st.write("done", end)
			case ev.Lag > 0:
				s.sm.lagNotices.Add(1)
				ok = st.write("lag", cluster.LagRecord{Lag: ev.Lag})
			default:
				ok = st.write("", ev.Emission)
			}
			if !ok {
				// Release the pump and buffer at once; the query runs on.
				h.Abandon()
			}
			if !ok || !open {
				return
			}
			st.flush() // each result reaches the client as it becomes final
		case <-ctx.Done():
			// Client went away; free the pump but keep the query running.
			h.Abandon()
			return
		}
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.sess.Stats()
	if err != nil {
		s.fail(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st, err := s.sess.Stats()
	if err != nil || st.Draining {
		s.fail(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
