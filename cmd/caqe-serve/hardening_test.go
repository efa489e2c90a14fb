package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"caqe/internal/cluster"
)

// TestHeaderStallDropped is the regression test for the unhardened
// listener: a connection that sends a partial request header and stalls
// must be dropped by ReadHeaderTimeout instead of holding a connection
// slot forever, while well-formed requests keep being served.
func TestHeaderStallDropped(t *testing.T) {
	srv, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.drain()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", srv.routes(), 100*time.Millisecond, time.Second)
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line with headers that never terminate.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: stall\r\nX-Stall: "); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	buf := make([]byte, 256)
	for {
		_, err := conn.Read(buf)
		if err != nil {
			break // server closed the connection (possibly after a 408)
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stalled connection held for %v, want drop near the 100ms header timeout", elapsed)
	}

	// The listener must still serve well-formed requests afterwards.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after stall: %d", resp.StatusCode)
	}
}

// Prometheus text exposition 0.0.4 line shapes — the same checks the CI
// smoke job runs against a live /metrics scrape.
var (
	promHelpRe = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	promTypeRe = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
	promSampRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\\\|\\"|\\n)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\\\|\\"|\\n)*")*\})? (?:[+-]?Inf|NaN|-?[0-9][0-9eE.+-]*)$`)
)

func validateExposition(t *testing.T, body string) {
	t.Helper()
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !promHelpRe.MatchString(line) {
				t.Errorf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			if !promTypeRe.MatchString(line) {
				t.Errorf("line %d: malformed TYPE: %q", i+1, line)
			}
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unknown comment form: %q", i+1, line)
		default:
			if !promSampRe.MatchString(line) {
				t.Errorf("line %d: malformed sample: %q", i+1, line)
			}
		}
	}
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of an unlabeled (or exactly-matching)
// sample line.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// TestMetricsExposition drives a full workload, drains every stream, then
// checks /metrics parses as valid exposition and reports the session's
// delivery state faithfully.
func TestMetricsExposition(t *testing.T) {
	srv, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	defer srv.drain()

	total := 0
	rid := -1 // R row behind some delivered result
	for qi, qr := range testQueries() {
		qres, status := submit(t, ts, qr)
		if status != http.StatusCreated {
			t.Fatalf("submit: %d", status)
		}
		es, _, _ := streamResults(t, ts, qres.ID)
		total += len(es)
		if len(es) > 0 {
			rid = es[0].RID
		}
		_ = qi
	}

	// Delete a row behind a delivered result: its window entry is live, so
	// the repair counters of the mutation family must move.
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/data/r/%d", ts.URL, rid), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /data/r/%d: status %d", rid, resp.StatusCode)
	}

	body := scrapeMetrics(t, ts)
	validateExposition(t, body)
	if v := metricValue(t, body, `caqe_mutations_total{kind="tuples_deleted"}`); v != 1 {
		t.Errorf("tuples_deleted %g, want 1", v)
	}
	if v := metricValue(t, body, `caqe_mutations_total{kind="entries_removed"}`); v < 1 {
		t.Errorf("entries_removed %g after deleting a skyline row, want at least 1", v)
	}
	metricValue(t, body, `caqe_mutations_total{kind="results_resettled"}`) // present, whatever its value
	// The trace aggregator hangs on the engine options: it must have seen
	// the run's scheduling decisions and the delete's delta event.
	if v := metricValue(t, body, `caqe_trace_events_total{kind="decision"}`); v <= 0 {
		t.Errorf("decision events %g, want some", v)
	}
	if v := metricValue(t, body, `caqe_trace_events_total{kind="delta"}`); v < 1 {
		t.Errorf("delta events %g after a delete, want at least 1", v)
	}

	for _, name := range []string{
		"caqe_http_requests_total", "caqe_http_request_duration_seconds_bucket",
		"caqe_http_request_duration_seconds_sum", "caqe_http_request_duration_seconds_count",
		"caqe_stream_encode_errors_total", "caqe_stream_lag_notices_total", "caqe_load_shed_total",
		"caqe_sessions_open", "caqe_session_queries_submitted_total", "caqe_session_queries",
		"caqe_stream_buffered_emissions", "caqe_stream_coalesced_total",
		"caqe_query_delivered", "caqe_engine_ops_total", "caqe_trace_events_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("exposition missing %s", name)
		}
	}

	if v := metricValue(t, body, "caqe_sessions_open"); v != 1 {
		t.Errorf("caqe_sessions_open %g, want 1", v)
	}
	if v := metricValue(t, body, "caqe_session_queries_submitted_total"); v != 3 {
		t.Errorf("submitted %g, want 3", v)
	}
	if v := metricValue(t, body, "caqe_stream_buffered_emissions"); v != 0 {
		t.Errorf("buffered %g after full drain, want 0", v)
	}
	// Every stream was drained: per-query delivered gauges must sum to the
	// total streamed over HTTP.
	sum := 0.0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "caqe_query_delivered{") {
			var v float64
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v)
			sum += v
		}
	}
	if int(sum) != total {
		t.Errorf("caqe_query_delivered sums to %g, streamed %d", sum, total)
	}
}

// failingWriter errors on every body write — the shape of a client whose
// connection died mid-stream.
type failingWriter struct {
	header http.Header
	code   int
}

func (f *failingWriter) Header() http.Header {
	if f.header == nil {
		f.header = make(http.Header)
	}
	return f.header
}
func (f *failingWriter) WriteHeader(code int)      { f.code = code }
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestEncodeErrorSurfaced pins the swallowed-error bugfix: a failing
// stream write must be logged, counted in /metrics and /stats, and must
// abandon the stream — not disappear silently.
func TestEncodeErrorSurfaced(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := testConfig()
	cfg.Logger = log.New(&logBuf, "", 0)
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	defer srv.drain()

	qres, status := submit(t, ts, testQueries()[1])
	if status != http.StatusCreated {
		t.Fatalf("submit: %d", status)
	}
	// Wait until results exist, then stream them into a writer that fails.
	waitState(t, ts, qres.ID, "done")
	req := httptest.NewRequest("GET", fmt.Sprintf("/queries/%d/results", qres.ID), nil)
	srv.routes().ServeHTTP(&failingWriter{}, req)

	if got := logBuf.String(); !strings.Contains(got, "client write failed") {
		t.Errorf("write failure not logged; log buffer: %q", got)
	}
	if n := srv.sm.encodeErrors.Load(); n == 0 {
		t.Error("encode error not counted")
	}
	body := scrapeMetrics(t, ts)
	if v := metricValue(t, body, "caqe_stream_encode_errors_total"); v == 0 {
		t.Error("caqe_stream_encode_errors_total still 0")
	}
	if v := metricValue(t, body, "caqe_stream_abandons_total"); v == 0 {
		t.Error("failed stream was not abandoned")
	}

	// A coordinator's merged stream goes through the same writer: the
	// failure is logged and counted there too, and exactly once — the rest
	// of the merged set is not written into the dead connection.
	logBuf.Reset()
	cs, err := newCoordinatorDaemon(coordDaemonConfig{
		LocalShards: 2, Partition: "range",
		N: testN, Dims: testDims, Keys: testKeys, Sel: testSel, Seed: testSeed,
		frontConfig: frontConfig{Logger: log.New(&logBuf, "", 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.drain()
	cts := httptest.NewServer(cs.routes())
	defer cts.Close()
	if qres, status = submit(t, cts, testQueries()[1]); status != http.StatusCreated {
		t.Fatalf("coordinator submit: %d", status)
	}
	req = httptest.NewRequest("GET", fmt.Sprintf("/queries/%d/results", qres.ID), nil)
	cs.routes().ServeHTTP(&failingWriter{}, req) // blocks until gathered and merged
	if got := logBuf.String(); !strings.Contains(got, "client write failed") {
		t.Errorf("coordinator write failure not logged; log buffer: %q", got)
	}
	if n := cs.sm.encodeErrors.Load(); n != 1 {
		t.Errorf("coordinator counted %d encode errors, want 1", n)
	}
	if v := metricValue(t, scrapeMetrics(t, cts), "caqe_stream_encode_errors_total"); v != 1 {
		t.Errorf("coordinator caqe_stream_encode_errors_total %g, want 1", v)
	}
}

func waitState(t *testing.T, ts *httptest.Server, id int, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/queries/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var qr cluster.SubmitReply
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if qr.State == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("query %d never reached state %s", id, want)
}

// TestLoadShed503 pins the global ceiling: with unread streams holding
// buffered emissions past -max-buffered-total, new submissions bounce with
// 503 and the shed is visible in /metrics; draining readmits.
func TestLoadShed503(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBufferedTotal = 1
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	defer srv.drain()

	qs := testQueries()
	qres, status := submit(t, ts, qs[0])
	if status != http.StatusCreated {
		t.Fatalf("submit: %d", status)
	}
	waitState(t, ts, qres.ID, "done") // finished with its stream unread

	if _, status := submit(t, ts, qs[1]); status != http.StatusServiceUnavailable {
		t.Fatalf("submit over the global buffer ceiling: %d, want 503", status)
	}
	body := scrapeMetrics(t, ts)
	if v := metricValue(t, body, "caqe_load_shed_total"); v == 0 {
		t.Error("shed submission not counted")
	}

	// Draining the hog's stream brings the aggregate back under the mark.
	streamResults(t, ts, qres.ID)
	if _, status := submit(t, ts, qs[1]); status != http.StatusCreated {
		t.Fatalf("submit after drain: %d", status)
	}
}

// TestDisconnectSlowWire pins the wire protocol of a severed stream: under
// -buffer-policy disconnect-slow a consumer arriving after its buffer
// overflowed gets an immediate terminal record with done=false and
// reason=slow-consumer — and the query itself still ran to completion.
func TestDisconnectSlowWire(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBuffered = 2
	cfg.BufferPolicy = "disconnect-slow"
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	defer srv.drain()

	qres, status := submit(t, ts, testQueries()[1]) // beta: ~32 results, far past the mark
	if status != http.StatusCreated {
		t.Fatalf("submit: %d", status)
	}
	waitState(t, ts, qres.ID, "done")

	es, lags, end := streamResults(t, ts, qres.ID)
	if len(es) != 0 || len(lags) != 0 {
		t.Errorf("severed stream delivered %d emissions and %d lag notices", len(es), len(lags))
	}
	if end.Done == nil || *end.Done || end.Reason != "slow-consumer" {
		t.Errorf("terminal record %+v, want done=false reason=slow-consumer", end)
	}
	body := scrapeMetrics(t, ts)
	if v := metricValue(t, body, "caqe_stream_disconnects_total"); v == 0 {
		t.Error("disconnect not counted in /metrics")
	}
}

// TestLagNoticeWire pins the block-executor-never wire protocol: a consumer
// arriving after the buffer overflowed receives a {"lag":n} notice followed
// by the newest high-water-bounded emissions and a done record whose
// coalesced count matches the notice.
func TestLagNoticeWire(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBuffered = 4
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	defer srv.drain()

	qres, status := submit(t, ts, testQueries()[1])
	if status != http.StatusCreated {
		t.Fatalf("submit: %d", status)
	}
	waitState(t, ts, qres.ID, "done")

	es, lags, end := streamResults(t, ts, qres.ID)
	if len(es) == 0 || len(es) > 4 {
		t.Errorf("delivered %d emissions from a buffer limited to 4", len(es))
	}
	var lag int64
	for _, l := range lags {
		lag += l
	}
	if lag == 0 {
		t.Error("no lag notice despite an overflowed buffer")
	}
	if end.Coalesced != lag {
		t.Errorf("done record reports %d coalesced, notices carried %d", end.Coalesced, lag)
	}
	body := scrapeMetrics(t, ts)
	if v := metricValue(t, body, "caqe_stream_lag_notices_total"); v == 0 {
		t.Error("lag notice not counted in /metrics")
	}
	if v := metricValue(t, body, "caqe_stream_coalesced_total"); int64(v) != lag {
		t.Errorf("caqe_stream_coalesced_total %g, want %d", v, lag)
	}
}
