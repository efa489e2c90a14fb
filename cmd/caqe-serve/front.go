package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	"caqe"
	"caqe/internal/cluster"
	"caqe/internal/metrics"
)

// maxRequestBytes bounds a request's headers and its body alike.
const maxRequestBytes = 1 << 20

// frontConfig is the part of a role's configuration that is about the HTTP
// front end rather than about what the role serves.
type frontConfig struct {
	// RetryAfterSeconds is the Retry-After header value sent with every 429
	// and 503 rejection (0 = default 1s).
	RetryAfterSeconds int
	// StreamWriteTimeout bounds each individual write on a result stream;
	// a stalled client fails the write and the stream is abandoned
	// (0 = no per-write deadline).
	StreamWriteTimeout time.Duration
	// Logger receives delivery-failure and lifecycle logs (default
	// log.Default()).
	Logger *log.Logger
}

// front is everything the server and coordinator roles have in common as
// HTTP daemons: request instrumentation, the JSON error reply and its
// error-to-status vocabulary, request decoding, result-stream writing and
// the /metrics exposition. Each role embeds it and adds the handlers that
// genuinely differ (status, cancel, results).
type front struct {
	logger       *log.Logger
	sm           *serveMetrics
	retryAfter   int // seconds, sent as Retry-After on 429/503
	writeTimeout time.Duration
}

func newFront(cfg frontConfig) front {
	f := front{logger: cfg.Logger, sm: newServeMetrics(), retryAfter: cfg.RetryAfterSeconds, writeTimeout: cfg.StreamWriteTimeout}
	if f.logger == nil {
		f.logger = log.Default()
	}
	if f.retryAfter <= 0 {
		f.retryAfter = 1
	}
	return f
}

// route registers a handler wrapped with request instrumentation: status
// code and latency per route pattern. The pattern is passed explicitly so
// the label set stays bounded (no per-id cardinality).
func (f *front) route(mux *http.ServeMux, pattern string, fn http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		f.sm.observeRequest(pattern, sw.code, time.Since(start))
	})
}

// statusWriter records the response status for instrumentation; Unwrap
// keeps the streaming capabilities of the underlying writer (flush,
// per-request deadlines) reachable through http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// errStatus maps the typed session and cluster errors onto HTTP status
// codes, the one vocabulary every handler speaks: the -max-concurrent
// admission cap is retryable (429), slot exhaustion is a resource conflict
// (409), and a draining, closed or overloaded session — or a cluster that
// is draining or has every shard down — is temporarily unavailable (503).
func errStatus(err error) int {
	switch {
	case errors.Is(err, caqe.ErrAdmissionFull):
		return http.StatusTooManyRequests
	case errors.Is(err, caqe.ErrSessionFull):
		return http.StatusConflict
	case errors.Is(err, caqe.ErrSessionDraining), errors.Is(err, caqe.ErrSessionClosed),
		errors.Is(err, caqe.ErrSessionOverloaded),
		errors.Is(err, cluster.ErrCoordinatorClosed), errors.Is(err, cluster.ErrScatterFailed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// fail writes a JSON error response. Retryable rejections — 429 from the
// admission cap, 503 from drain/shutdown/overload — carry a Retry-After
// hint so well-behaved clients back off instead of hammering the server.
func (f *front) fail(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(f.retryAfter))
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeBody decodes a JSON request body of at most maxRequestBytes into
// v, answering 413 for a larger one and 400 for anything else it cannot
// decode; it reports whether the handler should go on.
func (f *front) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		f.fail(w, status, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// pathID parses the {id} path segment, answering 400 when it is not a
// number; what names the thing identified ("query", "row").
func (f *front) pathID(w http.ResponseWriter, r *http.Request, what string) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		f.fail(w, http.StatusBadRequest, fmt.Errorf("bad %s id %q", what, r.PathValue("id")))
		return 0, false
	}
	return id, true
}

// resultStream writes the records of one query's result stream: NDJSON
// lines, or SSE frames when sse is set.
type resultStream struct {
	*front
	query int
	w     http.ResponseWriter
	rc    *http.ResponseController
	enc   *json.Encoder
	sse   bool
}

// openStream commits the response to a 200 in the stream's framing. The
// server's WriteTimeout is zero so streams can live arbitrarily long;
// instead each individual write gets its own deadline, which the caller
// clears on exit (clearDeadline) so a keep-alive connection isn't poisoned
// for the next request.
func (f *front) openStream(w http.ResponseWriter, query int, sse bool) *resultStream {
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	return &resultStream{
		front: f, query: query, w: w, sse: sse,
		rc: http.NewResponseController(w), enc: json.NewEncoder(w),
	}
}

// write runs one framed record (SSE event name event, "" for a plain data
// frame) through the per-write deadline. A failure is logged and counted
// instead of swallowed; the caller must then abandon the stream. The
// record may sit in the response buffer until flush or the handler's
// return. Deadlines and flushes are best-effort: writers that don't
// support them (test recorders) just proceed without.
func (s *resultStream) write(event string, v any) bool {
	if s.writeTimeout > 0 {
		_ = s.rc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	}
	if err := s.encode(event, v); err != nil {
		s.logger.Printf("caqe-serve: query %d results stream: client write failed: %v", s.query, err)
		s.sm.encodeErrors.Add(1)
		return false
	}
	return true
}

func (s *resultStream) flush() { _ = s.rc.Flush() }

func (s *resultStream) clearDeadline() { _ = s.rc.SetWriteDeadline(time.Time{}) }

// encode writes one record in the stream's framing: a bare JSON line for
// NDJSON, an "event:"-prefixed frame for SSE (plain data frames carry no
// event name).
func (s *resultStream) encode(event string, v any) error {
	if !s.sse {
		return s.enc.Encode(v)
	}
	head := "data: "
	if event != "" {
		head = "event: " + event + "\ndata: "
	}
	if _, err := io.WriteString(s.w, head); err != nil {
		return err
	}
	if err := s.enc.Encode(v); err != nil {
		return err
	}
	_, err := io.WriteString(s.w, "\n")
	return err
}

// metricsHandler serves the Prometheus text exposition: the front end's
// own families first, then the role's live snapshot.
func (f *front) metricsHandler(role func() []metrics.PromFamily) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := metrics.WriteProm(w, append(f.sm.families(), role()...)); err != nil {
			f.logger.Printf("caqe-serve: metrics exposition: %v", err)
		}
	}
}
