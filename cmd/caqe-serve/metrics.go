package main

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"caqe/internal/metrics"
	"caqe/internal/trace"
)

// serveMetrics aggregates the serving-side counters exposed on /metrics:
// HTTP traffic and latency, stream delivery failures, lag notices actually
// written to clients, and shed submissions. Session- and engine-level
// series (buffered emissions, per-state query counts, operation counters)
// are read live from the session at scrape time instead of being mirrored
// here.
type serveMetrics struct {
	mu       sync.Mutex
	requests map[requestKey]int64

	latency      *metrics.Histogram
	ttfr         *metrics.Histogram // submission to first buffered result, wall seconds
	encodeErrors atomic.Int64       // stream writes that failed mid-delivery
	lagNotices   atomic.Int64       // lag records written to client streams
	loadShed     atomic.Int64       // submissions shed with 503 (global high water)
}

type requestKey struct {
	route string
	code  int
}

func newServeMetrics() *serveMetrics {
	return &serveMetrics{
		requests: make(map[requestKey]int64),
		latency: metrics.NewHistogram(
			0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10),
		ttfr: metrics.NewHistogram(
			0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10),
	}
}

func (m *serveMetrics) observeRequest(route string, code int, d time.Duration) {
	m.mu.Lock()
	m.requests[requestKey{route, code}]++
	m.mu.Unlock()
	m.latency.Observe(d.Seconds())
}

// families renders the server-side metric families in a deterministic
// order.
func (m *serveMetrics) families() []metrics.PromFamily {
	m.mu.Lock()
	keys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	req := metrics.PromFamily{
		Name: "caqe_http_requests_total",
		Help: "HTTP requests served, by route pattern and status code.",
		Kind: metrics.PromCounter,
	}
	for _, k := range keys {
		req.Samples = append(req.Samples, metrics.PromSample{
			Labels: []metrics.PromLabel{
				{Name: "route", Value: k.route},
				{Name: "code", Value: strconv.Itoa(k.code)},
			},
			Value: float64(m.requests[k]),
		})
	}
	m.mu.Unlock()

	return []metrics.PromFamily{
		req,
		m.latency.Family("caqe_http_request_duration_seconds",
			"HTTP request latency (streaming requests measure the full stream)."),
		m.ttfr.Family("caqe_query_ttfr_seconds",
			"Wall time from query submission to its first result entering the delivery buffer."),
		counterFamily("caqe_stream_encode_errors_total",
			"Result-stream writes that failed mid-delivery (client gone or write deadline hit).",
			m.encodeErrors.Load()),
		counterFamily("caqe_stream_lag_notices_total",
			"Lag notices written to client result streams.",
			m.lagNotices.Load()),
		counterFamily("caqe_load_shed_total",
			"Submissions rejected with 503 because aggregate buffered emissions crossed the global high-water mark.",
			m.loadShed.Load()),
	}
}

func counterFamily(name, help string, v int64) metrics.PromFamily {
	return metrics.PromFamily{
		Name: name, Help: help, Kind: metrics.PromCounter,
		Samples: []metrics.PromSample{{Value: float64(v)}},
	}
}

func gaugeFamily(name, help string, v float64) metrics.PromFamily {
	return metrics.PromFamily{
		Name: name, Help: help, Kind: metrics.PromGauge,
		Samples: []metrics.PromSample{{Value: v}},
	}
}

// sample is one value of a family whose series differ in a single label.
type sample struct {
	label string
	v     float64
}

// labeled renders a family with one series per sample, in the order given.
func labeled(kind metrics.PromKind, name, help, label string, samples ...sample) metrics.PromFamily {
	f := metrics.PromFamily{Name: name, Help: help, Kind: kind}
	for _, s := range samples {
		f.Samples = append(f.Samples, metrics.PromSample{
			Labels: []metrics.PromLabel{{Name: label, Value: s.label}}, Value: s.v,
		})
	}
	return f
}

// sessionFamilies renders the session, delivery and engine series from a
// live stats snapshot; once the session has fully closed only liveness is
// reported.
func (s *server) sessionFamilies() []metrics.PromFamily {
	st, err := s.sess.Stats()
	if err != nil {
		return []metrics.PromFamily{gaugeFamily("caqe_sessions_open",
			"Whether the serving session is open (0 after final drain).", 0)}
	}
	// Known states render even at zero so scrapes see stable series.
	states := map[string]float64{}
	var delivered, buffered, satisfaction []sample
	for _, q := range st.Queries {
		states[q.State]++
		id := strconv.Itoa(q.ID)
		delivered = append(delivered, sample{id, float64(q.Delivered)})
		buffered = append(buffered, sample{id, float64(q.Buffered)})
		satisfaction = append(satisfaction, sample{id, q.Satisfaction})
	}
	fams := []metrics.PromFamily{
		gaugeFamily("caqe_sessions_open",
			"Whether the serving session is open (0 after final drain).", 1),
		gaugeFamily("caqe_session_draining",
			"Whether the session is draining for shutdown.", boolGauge(st.Draining)),
		gaugeFamily("caqe_clock_wall",
			"Whether the session runs on the wall clock (0 = virtual clock).",
			boolGauge(s.wallClock)),
		gaugeFamily("caqe_session_virtual_seconds",
			"Session clock in contract seconds (virtual units, or elapsed wall seconds in wall mode).", st.Now),
		gaugeFamily("caqe_session_open_queries",
			"Queries admitted and not yet finished.", float64(st.Open)),
		counterFamily("caqe_session_queries_submitted_total",
			"Queries submitted over the session lifetime.", int64(st.Submitted)),
		labeled(metrics.PromGauge, "caqe_session_queries",
			"Queries by lifecycle state (lagging is the over-high-water sub-state of running).", "state",
			sample{"cancelled", states["cancelled"]}, sample{"done", states["done"]},
			sample{"lagging", states["lagging"]}, sample{"queued", states["queued"]},
			sample{"running", states["running"]}),
		gaugeFamily("caqe_stream_buffered_emissions",
			"Emissions currently buffered between the executor and stream consumers, all queries.",
			float64(st.Delivery.Buffered)),
		gaugeFamily("caqe_stream_buffer_high_water",
			"Maximum per-query delivery-buffer occupancy observed.",
			float64(st.Delivery.HighWater)),
		counterFamily("caqe_stream_lag_events_total",
			"Transitions of a query stream into the lagging state.", st.Delivery.LagEvents),
		counterFamily("caqe_stream_coalesced_total",
			"Emissions coalesced out of streams (dropped from delivery, never from the report).",
			st.Delivery.Coalesced),
		counterFamily("caqe_stream_abandons_total",
			"Streams abandoned by their consumer (client disconnect).", st.Delivery.Abandons),
		labeled(metrics.PromGauge, "caqe_query_delivered", "Results delivered per query.", "query", delivered...),
		labeled(metrics.PromGauge, "caqe_query_buffered_emissions", "Emissions awaiting the consumer, per query.", "query", buffered...),
		labeled(metrics.PromGauge, "caqe_query_satisfaction", "Contract satisfaction so far, per query.", "query", satisfaction...),
		labeled(metrics.PromCounter, "caqe_mutations_total",
			"Base-table mutation work applied over the session lifetime, by kind.", "kind",
			sample{"tuples_appended", float64(st.Mutations.Appended)},
			sample{"tuples_deleted", float64(st.Mutations.Deleted)},
			sample{"cells_touched", float64(st.Mutations.CellsTouched)},
			sample{"regions_revived", float64(st.Mutations.RegionsRevived)},
			sample{"regions_created", float64(st.Mutations.RegionsCreated)},
			sample{"entries_removed", float64(st.Mutations.EntriesRemoved)},
			sample{"results_resettled", float64(st.Mutations.Resettled)}),
		gaugeFamily("caqe_mutations_pending",
			"Accepted mutations still waiting on their virtual-time anchor.",
			float64(st.Mutations.Pending)),
		labeled(metrics.PromCounter, "caqe_engine_ops_total",
			"Elementary engine operations (the virtual clock's cost drivers).", "op",
			sample{"join_probes", float64(st.Counters.JoinProbes)},
			sample{"join_results", float64(st.Counters.JoinResults)},
			sample{"skyline_cmps", float64(st.Counters.SkylineCmps)},
			sample{"cell_ops", float64(st.Counters.CellOps)},
			sample{"tuples_emitted", float64(st.Counters.TuplesEmitted)},
			sample{"regions_done", float64(st.Counters.RegionsDone)},
			sample{"regions_pruned", float64(st.Counters.RegionsPruned)},
			sample{"cuboid_subspaces", float64(st.Counters.CuboidSubspace)}),
	}
	snap := s.agg.Snapshot()
	var events []sample
	for _, kind := range trace.Kinds() {
		events = append(events, sample{string(kind), float64(snap.Events[kind])})
	}
	return append(fams, labeled(metrics.PromCounter, "caqe_trace_events_total",
		"Structured trace events observed in the current run, by kind.", "kind", events...))
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
