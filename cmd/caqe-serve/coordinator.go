package main

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"caqe"
	"caqe/internal/cluster"
	"caqe/internal/metrics"
)

// coordServer exposes a cluster coordinator over the same endpoint shapes
// as a single-node server: submissions scatter to every shard, result
// streams deliver the merged global skyline once the gather and the final
// dominance-merge pass complete, /stats reports per-shard scatter/gather
// accounting including partial failures, and /metrics adds the coordinator
// families (per-shard counters, merge comparisons, gather latency).
//
// Unlike a shard stream, a coordinator stream is not progressive: exactness
// requires every shard's local skyline before the merge, so the stream
// blocks until the query is done and then delivers the merged set in its
// deterministic (virtual time, shard id, rid) order. Progressive delivery
// remains available directly from the shard nodes.
type coordServer struct {
	front
	coord    *cluster.Coordinator
	draining atomic.Bool
}

// coordDaemonConfig carries the coordinator role's flag set: either remote
// shard URLs (HTTP transport) or a local in-process shard count (fast
// path), plus the shared dataset parameters both need to derive the
// topology and the local→global row ID tables.
type coordDaemonConfig struct {
	ShardURLs   string // comma-separated base URLs, in shard order
	LocalShards int    // >0: run the shards in this process instead
	Partition   string

	N, Dims, Keys int
	Dist          string
	Sel           float64
	Seed          int64
	TargetCells   int
	MaxConcurrent int

	Retries                                    int
	RetryBackoff, SubmitTimeout, GatherTimeout time.Duration

	frontConfig
}

// newCoordinatorDaemon builds the shard transports and the coordinator
// behind a coordServer.
func newCoordinatorDaemon(cfg coordDaemonConfig) (*coordServer, error) {
	var urls []string
	for _, u := range strings.Split(cfg.ShardURLs, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	shards := cfg.LocalShards
	if shards <= 0 {
		shards = len(urls)
	}
	if shards == 0 {
		return nil, fmt.Errorf("coordinator role needs -shards=<url,...> or -local-shards=N")
	}
	// The coordinator derives the same partition tables the shards derive
	// their slices from — pure topology, no data exchange.
	m, err := cluster.NewShardMap(shards, cluster.Strategy(cfg.Partition))
	if err != nil {
		return nil, err
	}
	var tables [][]int
	if shards > 1 {
		tables = m.Table(cfg.N)
	}
	var conns []cluster.ShardConn
	if cfg.LocalShards > 0 {
		r, t, joinConds, outDims, err := buildDataset(cfg.N, cfg.Dims, cfg.Keys, cfg.Dist, cfg.Sel, cfg.Seed)
		if err != nil {
			return nil, err
		}
		conns, err = cluster.NewInProcShards(cluster.InProcConfig{
			Map: m, R: r, T: t,
			JoinConds: joinConds, OutDims: outDims,
			Engine:        caqe.Options{TargetCells: cfg.TargetCells},
			MaxConcurrent: cfg.MaxConcurrent,
		})
		if err != nil {
			return nil, err
		}
	} else {
		conns = cluster.NewHTTPShards(urls, cfg.Retries, cfg.RetryBackoff, cfg.SubmitTimeout)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Conns:         conns,
		RIDs:          tables,
		GatherTimeout: cfg.GatherTimeout,
	})
	if err != nil {
		for _, c := range conns {
			_ = c.Close()
		}
		return nil, err
	}
	return &coordServer{front: newFront(cfg.frontConfig), coord: coord}, nil
}

// drain stops admitting, waits for every in-flight gather, and closes the
// shard connections.
func (s *coordServer) drain() {
	s.draining.Store(true)
	if err := s.coord.Close(); err != nil {
		s.logger.Printf("caqe-serve: coordinator drain: %v", err)
	}
}

func (s *coordServer) routes() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "POST /queries", s.handleSubmit)
	s.route(mux, "GET /queries/{id}", s.handleStatus)
	s.route(mux, "DELETE /queries/{id}", s.handleCancel)
	s.route(mux, "GET /queries/{id}/results", s.handleResults)
	s.route(mux, "GET /stats", s.handleStats)
	s.route(mux, "GET /healthz", s.handleHealthz)
	s.route(mux, "GET /metrics", s.metricsHandler(s.coordFamilies))
	return mux
}

func (s *coordServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req cluster.QuerySpec
	if !s.decodeBody(w, r, &req) {
		return
	}
	h, err := s.coord.Submit(req)
	if err != nil {
		status := errStatus(err)
		if status == http.StatusServiceUnavailable {
			s.logger.Printf("caqe-serve: coordinator rejecting %q: %v", req.Name, err)
		}
		s.fail(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, cluster.SubmitReply{ID: h.ID(), Name: h.Name(), State: h.State()})
}

func (s *coordServer) lookup(w http.ResponseWriter, r *http.Request) (*cluster.Handle, bool) {
	id, ok := s.pathID(w, r, "query")
	if !ok {
		return nil, false
	}
	h, ok := s.coord.Query(id)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown query %d", id))
		return nil, false
	}
	return h, true
}

// coordQueryStatus is the GET /queries/{id} body on a coordinator.
type coordQueryStatus struct {
	ID           int    `json:"id"`
	Name         string `json:"name"`
	State        string `json:"state"`
	Results      int    `json:"results"`
	FailedShards []int  `json:"failedShards,omitempty"`
}

func (s *coordServer) status(h *cluster.Handle) coordQueryStatus {
	results, _, failed := h.Results()
	return coordQueryStatus{
		ID: h.ID(), Name: h.Name(), State: h.State(),
		Results: len(results), FailedShards: failed,
	}
}

func (s *coordServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.status(h))
}

func (s *coordServer) handleCancel(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	h.Cancel()
	writeJSON(w, http.StatusOK, s.status(h))
}

// handleResults streams the merged global result set as NDJSON. The
// response blocks until the gather and merge complete (exactness needs
// every local skyline), then delivers every merged emission — tagged with
// its source shard — followed by a done record carrying the partial flag
// and any failed shards, in one burst (flushed when the handler returns).
// Writes go through the shared stream writer, so a stalled or vanished
// client fails a write, is logged and counted, and the rest of the set is
// not written.
func (s *coordServer) handleResults(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	select {
	case <-h.Done():
	case <-r.Context().Done():
		return
	}
	results, mst, failed := h.Results()
	st := s.openStream(w, h.ID(), false)
	defer st.clearDeadline()
	for _, c := range results {
		if !st.write("", c) {
			return
		}
	}
	st.write("done", cluster.StreamEnd{
		Done: true, State: h.State(),
		MergedEnd: &cluster.MergedEnd{
			Partial: len(failed) > 0, FailedShards: failed,
			Results: len(results), MergeCmps: mst.Cmps,
		},
	})
}

func (s *coordServer) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.Stats())
}

func (s *coordServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// coordFamilies renders the coordinator metric families: per-shard
// scatter/gather/failure/retry counters, the merge-comparison counter, and
// the gather-latency histogram.
func (s *coordServer) coordFamilies() []metrics.PromFamily {
	st := s.coord.Stats()
	perShard := func(name, help string, v func(cluster.ShardStat) int64) metrics.PromFamily {
		samples := make([]sample, len(st.Shards))
		for i, ss := range st.Shards {
			samples[i] = sample{strconv.Itoa(ss.Shard), float64(v(ss))}
		}
		return labeled(metrics.PromCounter, name, help, "shard", samples...)
	}
	states := map[string]float64{}
	for _, q := range st.Queries {
		states[q.State]++
	}
	return []metrics.PromFamily{
		gaugeFamily("caqe_coordinator_shards", "Shards in the cluster topology.", float64(len(st.Shards))),
		gaugeFamily("caqe_coordinator_draining", "Whether the coordinator is draining for shutdown.", boolGauge(st.Draining)),
		counterFamily("caqe_coordinator_queries_submitted_total", "Queries scattered over the coordinator lifetime.", int64(st.Submitted)),
		gaugeFamily("caqe_coordinator_open_queries", "Queries still gathering.", float64(st.Open)),
		counterFamily("caqe_coordinator_partials_total", "Queries completed with at least one failed shard.", st.Partials),
		perShard("caqe_shard_scatter_total", "Submissions accepted per shard.", func(ss cluster.ShardStat) int64 { return ss.Scattered }),
		perShard("caqe_shard_gathered_total", "Emissions gathered per shard.", func(ss cluster.ShardStat) int64 { return ss.Gathered }),
		perShard("caqe_shard_failures_total", "Scatter or gather failures per shard.", func(ss cluster.ShardStat) int64 { return ss.Failures }),
		perShard("caqe_shard_retries_total", "Transport submit retries per shard.", func(ss cluster.ShardStat) int64 { return ss.Retries }),
		counterFamily("caqe_shard_merge_cmp_total",
			"Dominance comparisons charged at the coordinator by the final merge pass.", st.MergeCmps),
		s.coord.GatherSeconds().Family("caqe_gather_duration_seconds",
			"Wall time from scatter acceptance to merged result set, per query."),
		labeled(metrics.PromGauge, "caqe_coordinator_queries", "Coordinated queries by lifecycle state.", "state",
			sample{"cancelled", states["cancelled"]}, sample{"done", states["done"]},
			sample{"partial", states["partial"]}, sample{"running", states["running"]}),
	}
}
