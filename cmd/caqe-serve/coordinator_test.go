package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caqe/internal/cluster"
)

// startShardNodes launches count shard-role servers over httptest, each
// holding its range partition of the shared dataset, and returns their base
// URLs plus a drain function.
func startShardNodes(t *testing.T, count int, wrap func(shard int, h http.Handler) http.Handler) ([]string, func()) {
	t.Helper()
	urls := make([]string, count)
	var cleanups []func()
	for s := 0; s < count; s++ {
		cfg := testConfig()
		cfg.ShardIndex, cfg.ShardCount = s, count
		srv, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := http.Handler(srv.routes())
		if wrap != nil {
			h = wrap(s, h)
		}
		ts := httptest.NewServer(h)
		urls[s] = ts.URL
		cleanups = append(cleanups, func() { ts.Close(); srv.drain() })
	}
	return urls, func() {
		for _, fn := range cleanups {
			fn()
		}
	}
}

func startCoordinator(t *testing.T, urls []string, retries int) (*coordServer, *httptest.Server) {
	t.Helper()
	cs, err := newCoordinatorDaemon(coordDaemonConfig{
		ShardURLs: strings.Join(urls, ","), N: testN,
		Dims: testDims, Keys: testKeys, Sel: testSel, Seed: testSeed,
		Retries: retries, RetryBackoff: 5 * time.Millisecond, SubmitTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cs.routes())
	t.Cleanup(ts.Close)
	return cs, ts
}

// streamCoordResults drains a merged NDJSON stream into (RID, TID) keys
// plus the done record.
func streamCoordResults(t *testing.T, ts *httptest.Server, id int) (map[[2]int]bool, cluster.StreamRecord) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/queries/%d/results", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d", resp.StatusCode)
	}
	got := make(map[[2]int]bool)
	var end cluster.StreamRecord
	ends := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ln cluster.StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case ln.Done != nil:
			end, ends = ln, ends+1
		case ln.Shard == nil:
			t.Fatalf("emission without shard tag: %q", sc.Text())
		default:
			got[[2]int{*ln.RID, ln.TID}] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if ends != 1 {
		t.Fatalf("%d done records", ends)
	}
	return got, end
}

// TestCoordinatorE2EExact runs three shard nodes plus a coordinator over
// HTTP and checks every merged stream equals the unsharded batch reference
// result set.
func TestCoordinatorE2EExact(t *testing.T) {
	urls, drainShards := startShardNodes(t, 3, nil)
	defer drainShards()
	cs, ts := startCoordinator(t, urls, 1)
	defer cs.drain()

	ref := batchReference(t)
	for qi, qr := range testQueries() {
		qres, code := submit(t, ts, qr)
		if code != http.StatusCreated {
			t.Fatalf("submit %s: status %d", qr.Name, code)
		}
		if qres.ID != qi {
			t.Fatalf("query %s got id %d, want %d", qr.Name, qres.ID, qi)
		}
		got, end := streamCoordResults(t, ts, qres.ID)
		if end.State != "done" || end.Partial {
			t.Fatalf("query %s: end %+v", qr.Name, end)
		}
		want := ref.ResultSet(qi)
		if len(got) != len(want) {
			t.Fatalf("query %s: %d merged results, reference has %d", qr.Name, len(got), len(want))
		}
		for _, k := range want {
			if !got[[2]int{k.RID, k.TID}] {
				t.Fatalf("query %s: missing reference result %v", qr.Name, k)
			}
		}
	}

	// Coordinator metrics carry the merge counter and per-shard families.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"caqe_shard_merge_cmp_total",
		"caqe_shard_scatter_total{shard=\"2\"}",
		"caqe_shard_gathered_total{shard=\"0\"}",
		"caqe_gather_duration_seconds_count",
		"caqe_coordinator_queries{state=\"done\"} 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCoordinatorE2ERetryAndPartial exercises the failure paths the ISSUE
// pins: a shard that 503s once is retried transparently; a shard that is
// permanently down yields a partial result surfaced in the done record and
// /stats.
func TestCoordinatorE2ERetryAndPartial(t *testing.T) {
	var flaky atomic.Int32
	flaky.Store(1) // first submission attempt on shard 1 fails
	urls, drainShards := startShardNodes(t, 3, func(shard int, h http.Handler) http.Handler {
		if shard != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && flaky.Add(-1) >= 0 {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"transient"}`, http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	defer drainShards()
	cs, ts := startCoordinator(t, urls, 2)
	defer cs.drain()

	// Retry: the transient 503 is absorbed and the merged set is exact.
	ref := batchReference(t)
	qres, code := submit(t, ts, testQueries()[0])
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	got, end := streamCoordResults(t, ts, qres.ID)
	if end.State != "done" || end.Partial {
		t.Fatalf("end %+v", end)
	}
	if want := ref.ResultSet(0); len(got) != len(want) {
		t.Fatalf("%d results after retry, want %d", len(got), len(want))
	}
	st := cs.coord.Stats()
	if st.Shards[1].Retries == 0 {
		t.Fatalf("no retries recorded: %+v", st.Shards)
	}

	// Partial: shard 1 goes down for good; the query completes with the
	// failure surfaced, and /stats counts it.
	flaky.Store(1 << 30)
	qres2, code := submit(t, ts, testQueries()[1])
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	got2, end2 := streamCoordResults(t, ts, qres2.ID)
	if end2.State != "partial" || !end2.Partial {
		t.Fatalf("end %+v", end2)
	}
	if len(end2.FailedShards) != 1 || end2.FailedShards[0] != 1 {
		t.Fatalf("failed shards %v", end2.FailedShards)
	}
	if want := ref.ResultSet(1); len(got2) >= len(want)+1 || len(got2) == 0 {
		t.Fatalf("partial result has %d results, full set %d", len(got2), len(want))
	}

	var stats struct {
		Partials int64 `json:"partials"`
		Shards   []struct {
			Failures int64 `json:"failures"`
		} `json:"shards"`
		Queries []struct {
			State string `json:"state"`
		} `json:"queries"`
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Partials != 1 || stats.Shards[1].Failures == 0 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Queries[1].State != "partial" {
		t.Fatalf("query state %q", stats.Queries[1].State)
	}
}

// TestCoordinatorLocalShards covers the in-process transport behind the
// -local-shards flag: one binary, N shard sessions, exact results.
func TestCoordinatorLocalShards(t *testing.T) {
	cs, err := newCoordinatorDaemon(coordDaemonConfig{
		LocalShards: 3, N: testN, Dims: testDims, Keys: testKeys, Sel: testSel, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.drain()
	ts := httptest.NewServer(cs.routes())
	defer ts.Close()

	ref := batchReference(t)
	for qi, qr := range testQueries() {
		qres, code := submit(t, ts, qr)
		if code != http.StatusCreated {
			t.Fatalf("submit %s: status %d", qr.Name, code)
		}
		got, end := streamCoordResults(t, ts, qres.ID)
		if end.State != "done" {
			t.Fatalf("query %s: end %+v", qr.Name, end)
		}
		want := ref.ResultSet(qi)
		if len(got) != len(want) {
			t.Fatalf("query %s: %d results, want %d", qr.Name, len(got), len(want))
		}
		for _, k := range want {
			if !got[[2]int{k.RID, k.TID}] {
				t.Fatalf("query %s: missing %v", qr.Name, k)
			}
		}
	}

	// Draining coordinator rejects with 503.
	cs.drain()
	_, code := submit(t, ts, testQueries()[0])
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d", code)
	}
}

// coordRequest sends one bodiless request to a coordinator's query path and
// decodes the coordQueryStatus reply of a 200.
func coordRequest(t *testing.T, ts *httptest.Server, method string, id int) (coordQueryStatus, int) {
	t.Helper()
	req, err := http.NewRequest(method, fmt.Sprintf("%s/queries/%d", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st coordQueryStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func healthz(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCoordinatorStatusCancelHealthz covers the coordinator's query
// endpoints over HTTP shards. The shards hold every result stream until
// the cancel went out, so the cancel lands while the query is gathering:
// DELETE /queries/{id} sends one DELETE to each shard node and the query
// ends cancelled, which GET /queries/{id} then reports. /healthz turns 503
// once the coordinator drains.
func TestCoordinatorStatusCancelHealthz(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	var deletes atomic.Int32
	urls, drainShards := startShardNodes(t, 3, func(shard int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.Method == http.MethodDelete:
				deletes.Add(1)
			case strings.HasSuffix(r.URL.Path, "/results"):
				<-release
			}
			h.ServeHTTP(w, r)
		})
	})
	defer drainShards()
	cs, ts := startCoordinator(t, urls, 0)
	defer cs.drain()
	defer unblock()

	if code := healthz(t, ts); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	qres, code := submit(t, ts, testQueries()[0])
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	st, code := coordRequest(t, ts, http.MethodGet, qres.ID)
	if code != http.StatusOK || st.ID != qres.ID || st.Name != qres.Name || st.State != "running" || st.Results != 0 {
		t.Fatalf("status %d %+v, want 200 running with no results", code, st)
	}
	st, code = coordRequest(t, ts, http.MethodDelete, qres.ID)
	if code != http.StatusOK || st.State != "running" {
		t.Fatalf("cancel %d %+v, want 200 running (gather held)", code, st)
	}
	if n := deletes.Load(); n != 3 {
		t.Fatalf("cancel reached %d of 3 shards", n)
	}

	unblock()
	got, end := streamCoordResults(t, ts, qres.ID)
	if end.State != "cancelled" || end.Partial {
		t.Fatalf("end %+v, want cancelled and not partial", end)
	}
	st, code = coordRequest(t, ts, http.MethodGet, qres.ID)
	if code != http.StatusOK || st.State != "cancelled" || st.Results != len(got) || len(st.FailedShards) != 0 {
		t.Fatalf("status %d %+v after cancel, want cancelled with %d results", code, st, len(got))
	}
	if _, code := coordRequest(t, ts, http.MethodGet, qres.ID+1); code != http.StatusNotFound {
		t.Fatalf("unknown query: %d, want 404", code)
	}
	if _, code := coordRequest(t, ts, http.MethodDelete, qres.ID+1); code != http.StatusNotFound {
		t.Fatalf("cancel of unknown query: %d, want 404", code)
	}

	cs.drain()
	if code := healthz(t, ts); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", code)
	}
}
