package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"caqe"
	"caqe/internal/cluster"
)

// TestErrStatusMatrix pins the full error-to-status vocabulary shared by
// every handler path.
func TestErrStatusMatrix(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{caqe.ErrAdmissionFull, http.StatusTooManyRequests},
		{caqe.ErrSessionFull, http.StatusConflict},
		{caqe.ErrSessionDraining, http.StatusServiceUnavailable},
		{caqe.ErrSessionClosed, http.StatusServiceUnavailable},
		{caqe.ErrSessionOverloaded, http.StatusServiceUnavailable},
		{caqe.ErrUnknownQuery, http.StatusBadRequest},
		{cluster.ErrCoordinatorClosed, http.StatusServiceUnavailable},
		{fmt.Errorf("%w (2 shards)", cluster.ErrScatterFailed), http.StatusServiceUnavailable},
	}
	for _, c := range cases {
		if got := errStatus(c.err); got != c.want {
			t.Errorf("errStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestRequestBodyStatus pins what every role answers to a request body it
// will not take: 413 with the JSON error reply past the 1 MiB bound, 400
// for one it cannot decode or whose contract parameters are out of range —
// and that a shard node, whose rows the coordinator addresses by pure
// topology arithmetic, serves no /data routes at all.
func TestRequestBodyStatus(t *testing.T) {
	srv, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.drain()
	shardCfg := testConfig()
	shardCfg.ShardIndex, shardCfg.ShardCount = 0, 2
	shard, err := newServer(shardCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shard.drain()
	coord, err := newCoordinatorDaemon(coordDaemonConfig{
		LocalShards: 2,
		N:           testN, Dims: testDims, Keys: testKeys, Sel: testSel, Seed: testSeed, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.drain()

	huge := `{"name":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	hugeRows := `{"rows":[{"attrs":[` + strings.Repeat("1,", maxRequestBytes/2) + `1]}]}`
	cases := []struct {
		name      string
		h         http.Handler
		method    string
		path      string
		body      string
		want      int
		jsonError bool
	}{
		{"server oversized query", srv.routes(), "POST", "/queries", huge, http.StatusRequestEntityTooLarge, true},
		{"server oversized rows", srv.routes(), "POST", "/data/r", hugeRows, http.StatusRequestEntityTooLarge, true},
		{"shard oversized query", shard.routes(), "POST", "/queries", huge, http.StatusRequestEntityTooLarge, true},
		{"coordinator oversized query", coord.routes(), "POST", "/queries", huge, http.StatusRequestEntityTooLarge, true},
		{"server malformed query", srv.routes(), "POST", "/queries", "{nope", http.StatusBadRequest, true},
		{"coordinator malformed query", coord.routes(), "POST", "/queries", "{nope", http.StatusBadRequest, true},
		{"server ratequota without frac", srv.routes(), "POST", "/queries", `{"jc":0,"pref":[0,1],"contract":{"class":"ratequota"}}`, http.StatusBadRequest, true},
		{"server hybrid negative frac", srv.routes(), "POST", "/queries", `{"jc":0,"pref":[0,1],"contract":{"class":"hybrid","frac":-1,"interval":5}}`, http.StatusBadRequest, true},
		{"coordinator ratequota without frac", coord.routes(), "POST", "/queries", `{"jc":0,"pref":[0,1],"contract":{"class":"ratequota"}}`, http.StatusBadRequest, true},
		{"coordinator hybrid negative frac", coord.routes(), "POST", "/queries", `{"jc":0,"pref":[0,1],"contract":{"class":"hybrid","frac":-1,"interval":5}}`, http.StatusBadRequest, true},
		{"server unknown table", srv.routes(), "POST", "/data/x", `{"delete":[0]}`, http.StatusBadRequest, true},
		{"shard refuses append", shard.routes(), "POST", "/data/r", `{"delete":[0]}`, http.StatusNotFound, false},
		{"shard refuses delete", shard.routes(), "DELETE", "/data/r/0", "", http.StatusNotFound, false},
		{"coordinator has no data routes", coord.routes(), "POST", "/data/r", `{"delete":[0]}`, http.StatusNotFound, false},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, rec.Code, c.want)
		}
		var reply struct {
			Error string `json:"error"`
		}
		if c.jsonError && (json.Unmarshal(rec.Body.Bytes(), &reply) != nil || reply.Error == "") {
			t.Errorf("%s: reply %q is not the JSON error body", c.name, rec.Body.String())
		}
	}
	// A plain server does take the request a shard refuses.
	rec := httptest.NewRecorder()
	srv.routes().ServeHTTP(rec, httptest.NewRequest("DELETE", "/data/r/0", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("server DELETE /data/r/0: status %d, want 200", rec.Code)
	}
}

// TestTinyIntervalContractDoesNotStall: a rate-quota interval many orders
// below the run's virtual duration is valid input, and serving it must cost
// no more than any other contract — 201 within a second and a finished
// stream, on server and coordinator. One ordinary query runs to completion
// first so the tiny-interval query arrives late on the virtual clock.
func TestTinyIntervalContractDoesNotStall(t *testing.T) {
	const body = `{"jc":0,"pref":[0,2],"contract":{"class":"ratequota","frac":0.1,"interval":1e-12}}`
	srv, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.drain()
	coord, err := newCoordinatorDaemon(coordDaemonConfig{
		LocalShards: 2,
		N:           testN, Dims: testDims, Keys: testKeys, Sel: testSel, Seed: testSeed, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.drain()

	for _, role := range []struct {
		name string
		h    http.Handler
	}{{"server", srv.routes()}, {"coordinator", coord.routes()}} {
		ts := httptest.NewServer(role.h)
		defer ts.Close()
		stream := func(id int, within time.Duration) string {
			t.Helper()
			client := &http.Client{Timeout: within}
			resp, err := client.Get(fmt.Sprintf("%s/queries/%d/results", ts.URL, id))
			if err != nil {
				t.Fatalf("%s: stream of query %d: %v", role.name, id, err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("%s: stream of query %d not finished within %v: %v", role.name, id, within, err)
			}
			return string(data)
		}
		first, code := submit(t, ts, testQueries()[0])
		if code != http.StatusCreated {
			t.Fatalf("%s: first submit: status %d", role.name, code)
		}
		stream(first.ID, time.Minute)

		client := &http.Client{Timeout: time.Second}
		resp, err := client.Post(ts.URL+"/queries", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: tiny-interval submit: %v", role.name, err)
		}
		var reply cluster.SubmitReply
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || err != nil {
			t.Fatalf("%s: tiny-interval submit: status %d, decode %v", role.name, resp.StatusCode, err)
		}
		if out := stream(reply.ID, 5*time.Second); !strings.Contains(out, `"done":true`) {
			t.Errorf("%s: tiny-interval stream ended without a done record:\n%s", role.name, out)
		}
	}
}

// TestRetryAfterHeaders: retryable rejections (429 from the admission cap,
// 503 mid-drain) carry the configured Retry-After hint; client errors do
// not.
func TestRetryAfterHeaders(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 1
	cfg.RetryAfterSeconds = 7
	cfg.noAutoStart = true
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	qs := testQueries()
	if _, status := submit(t, ts, qs[0]); status != http.StatusCreated {
		t.Fatalf("first submit: %d", status)
	}

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/queries", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Over the -max-concurrent cap: 429 with Retry-After.
	resp := post(`{"jc":0,"pref":[0,1]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("429 Retry-After = %q, want 7", got)
	}

	// Malformed body: 400 and no Retry-After.
	resp = post("{nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "" {
		t.Errorf("400 carries Retry-After %q", got)
	}

	// Mid-drain: submissions and health both answer 503 with Retry-After.
	srv.drain()
	resp = post(`{"jc":0,"pref":[0,1]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("503 Retry-After = %q, want 7", got)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz post-drain: %d", hresp.StatusCode)
	}
	if got := hresp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("healthz 503 Retry-After = %q, want 7", got)
	}
}

// TestServerConfigValidation: invalid clock modes and out-of-range
// admission caps fail construction with errors instead of being clamped.
func TestServerConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.Clock = "sundial"
	if _, err := newServer(bad); err == nil {
		t.Error("unknown clock mode accepted")
	}
	for _, mc := range []int{-1, caqe.MaxConcurrentQueries + 1} {
		cfg := testConfig()
		cfg.MaxConcurrent = mc
		if _, err := newServer(cfg); err == nil {
			t.Errorf("max-concurrent %d accepted", mc)
		}
	}
	ok := testConfig()
	ok.Clock = "wall"
	ok.MaxConcurrent = caqe.MaxConcurrentQueries
	srv, err := newServer(ok)
	if err != nil {
		t.Fatalf("valid wall config rejected: %v", err)
	}
	srv.drain()
}

// TestServeWallClockEndToEnd: the wall-clock serving path returns exactly
// the batch result sets (the clock changes scheduling, never answers) and
// exposes the clock mode and TTFR histogram on /metrics.
func TestServeWallClockEndToEnd(t *testing.T) {
	ref := batchReference(t)
	cfg := testConfig()
	cfg.Clock = "wall"
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	defer srv.drain()

	ids := make([]int, 0, 3)
	for _, qr := range testQueries() {
		qres, status := submit(t, ts, qr)
		if status != http.StatusCreated {
			t.Fatalf("submit %s: status %d", qr.Name, status)
		}
		ids = append(ids, qres.ID)
	}
	for qi, id := range ids {
		es, _, end := streamResults(t, ts, id)
		if end.Done == nil || !*end.Done {
			t.Fatalf("query %d: stream did not finish: %+v", qi, end)
		}
		got, want := keysOf(es), ref.ResultSet(qi)
		if len(got) != len(want) {
			t.Errorf("query %d: %d results streamed, batch has %d", qi, len(got), len(want))
			continue
		}
		for k := range got {
			if got[k] != want[k] {
				t.Errorf("query %d result %d: %+v vs %+v", qi, k, got[k], want[k])
				break
			}
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "caqe_clock_wall 1") {
		t.Error("metrics missing caqe_clock_wall 1")
	}
	if !strings.Contains(body, "caqe_query_ttfr_seconds_count") {
		t.Error("metrics missing caqe_query_ttfr_seconds histogram")
	}
}
