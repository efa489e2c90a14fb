package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"caqe/internal/cluster"
)

// fakeShard is a minimal shard node: POST /queries assigns ids (after an
// optional number of rejections), GET /queries/{id}/results plays back a
// scripted NDJSON stream.
type fakeShard struct {
	rejections int32  // 503s to serve before accepting
	retryAfter string // Retry-After header sent with rejections ("" = none)
	submitted  atomic.Int32
	hang       time.Duration // delay before answering a submit
	stream     []string      // NDJSON lines for every query
}

func (f *fakeShard) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /queries", func(w http.ResponseWriter, r *http.Request) {
		if f.hang > 0 {
			time.Sleep(f.hang)
		}
		if n := f.submitted.Add(1); int32(f.rejections) >= n {
			if f.retryAfter != "" {
				w.Header().Set("Retry-After", f.retryAfter)
			}
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"id":%d,"name":"q","state":"running"}`, f.submitted.Load()-1-int32(f.rejections))
	})
	mux.HandleFunc("GET /queries/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, line := range f.stream {
			fmt.Fprintln(w, line)
		}
	})
	mux.HandleFunc("DELETE /queries/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

func emitLine(query, rid, tid int, t float64) string {
	return fmt.Sprintf(`{"Query":%d,"RID":%d,"TID":%d,"Out":[1,2],"Time":%g}`, query, rid, tid, t)
}

// TestHTTPConnRetrySucceeds retries a 503-then-accepting shard and gathers
// its stream, row IDs untranslated: a ShardConn is pure transport.
func TestHTTPConnRetrySucceeds(t *testing.T) {
	shard := &fakeShard{
		rejections: 1,
		stream:     []string{emitLine(0, 0, 7, 1.5), emitLine(0, 1, 9, 2.5), `{"done":true,"state":"done"}`},
	}
	srv := httptest.NewServer(shard.handler())
	defer srv.Close()
	conn := cluster.NewHTTPConn(cluster.HTTPConnConfig{
		BaseURL: srv.URL,
		Retries: 2, RetryBackoff: time.Millisecond,
	})
	q, err := conn.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if conn.Retries() != 1 {
		t.Fatalf("retries %d, want 1", conn.Retries())
	}
	ems, err := q.Gather(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ems) != 2 || ems[0].RID != 0 || ems[1].RID != 1 || ems[1].TID != 9 {
		t.Fatalf("gathered %+v", ems)
	}
}

// TestHTTPConnRetriesExhausted fails after the configured attempts against
// a permanently unavailable shard.
func TestHTTPConnRetriesExhausted(t *testing.T) {
	shard := &fakeShard{rejections: 100}
	srv := httptest.NewServer(shard.handler())
	defer srv.Close()
	conn := cluster.NewHTTPConn(cluster.HTTPConnConfig{
		BaseURL: srv.URL, Retries: 2, RetryBackoff: time.Millisecond,
	})
	if _, err := conn.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}}); err == nil {
		t.Fatal("expected submit failure")
	}
	if got := shard.submitted.Load(); got != 3 {
		t.Fatalf("shard saw %d attempts, want 3", got)
	}
}

// TestHTTPConnPermanentRejection does not retry a 4xx rejection.
func TestHTTPConnPermanentRejection(t *testing.T) {
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, `{"error":"bad pref"}`, http.StatusBadRequest)
	}))
	defer srv.Close()
	conn := cluster.NewHTTPConn(cluster.HTTPConnConfig{
		BaseURL: srv.URL, Retries: 5, RetryBackoff: time.Millisecond,
	})
	_, err := conn.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("err = %v", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("%d attempts for a permanent rejection", attempts.Load())
	}
}

// TestHTTPConnSubmitTimeout treats a hung shard as a retryable failure
// bounded by the per-attempt deadline.
func TestHTTPConnSubmitTimeout(t *testing.T) {
	shard := &fakeShard{hang: 2 * time.Second}
	srv := httptest.NewServer(shard.handler())
	defer srv.Close()
	conn := cluster.NewHTTPConn(cluster.HTTPConnConfig{
		BaseURL: srv.URL, SubmitTimeout: 50 * time.Millisecond,
	})
	start := time.Now()
	if _, err := conn.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}}); err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("submit took %v despite 50ms deadline", time.Since(start))
	}
}

// TestHTTPConnLossyStreams flags coalesced, severed and truncated streams
// as gather failures — a lossy stream is not a complete local skyline.
func TestHTTPConnLossyStreams(t *testing.T) {
	cases := []struct {
		name  string
		lines []string
	}{
		{"coalesced", []string{emitLine(0, 0, 1, 1), `{"done":true,"state":"done","coalesced":3}`}},
		{"lag", []string{`{"lag":5}`, `{"done":true,"state":"done"}`}},
		{"severed", []string{emitLine(0, 0, 1, 1), `{"done":false,"state":"running","reason":"buffer"}`}},
		{"truncated", []string{emitLine(0, 0, 1, 1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shard := &fakeShard{stream: tc.lines}
			srv := httptest.NewServer(shard.handler())
			defer srv.Close()
			conn := cluster.NewHTTPConn(cluster.HTTPConnConfig{BaseURL: srv.URL})
			q, err := conn.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := q.Gather(context.Background()); err == nil {
				t.Fatal("expected gather error")
			}
		})
	}
}

// TestCoordinatorPartialFailure runs a two-shard HTTP coordinator where one
// shard is down: the query completes partial, the failure shows in stats.
func TestCoordinatorPartialFailure(t *testing.T) {
	good := &fakeShard{stream: []string{emitLine(0, 0, 1, 1), `{"done":true,"state":"done"}`}}
	goodSrv := httptest.NewServer(good.handler())
	defer goodSrv.Close()
	bad := &fakeShard{rejections: 1 << 20}
	badSrv := httptest.NewServer(bad.handler())
	defer badSrv.Close()

	conns := cluster.NewHTTPShards([]string{goodSrv.URL, badSrv.URL}, 1, time.Millisecond, time.Second)
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Conns: conns})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	h, err := coord.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if h.State() != "partial" {
		t.Fatalf("state %s, want partial", h.State())
	}
	results, _, failed := h.Results()
	if len(results) != 1 || len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("results %v failed %v", results, failed)
	}
	st := coord.Stats()
	if st.Partials != 1 || st.Shards[1].Failures == 0 || st.Shards[1].Retries == 0 {
		t.Fatalf("stats %+v", st)
	}

	// Both shards down: the submission itself fails.
	allBad := cluster.NewHTTPShards([]string{badSrv.URL, badSrv.URL}, 0, time.Millisecond, time.Second)
	coord2, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Conns: allBad})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if _, err := coord2.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}}); err == nil {
		t.Fatal("expected scatter failure")
	}
}

// TestCoordinatorTranslatesRIDs: the coordinator's gather is the one place
// shard-local row IDs become global, and a row ID outside a shard's table
// marks that shard failed instead of indexing past it.
func TestCoordinatorTranslatesRIDs(t *testing.T) {
	done := `{"done":true,"state":"done"}`
	streams := [][]string{
		{emitLine(0, 0, 7, 1.5), emitLine(0, 2, 9, 2.5), done},
		{emitLine(0, 1, 7, 1), emitLine(0, 5, 8, 2), done}, // local row 5 of a 2-row partition
	}
	urls := make([]string, len(streams))
	for i, lines := range streams {
		srv := httptest.NewServer((&fakeShard{stream: lines}).handler())
		defer srv.Close()
		urls[i] = srv.URL
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Conns: cluster.NewHTTPShards(urls, 0, time.Millisecond, time.Second),
		RIDs:  [][]int{{10, 20, 30}, {40, 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// One preference dimension, equal Out everywhere: nothing dominates.
	h, err := coord.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	results, _, failed := h.Results()
	got := make(map[[2]int]bool)
	for _, c := range results {
		got[[2]int{c.Shard, c.RID}] = true
	}
	if len(got) != 3 || !got[[2]int{0, 10}] || !got[[2]int{0, 30}] || !got[[2]int{1, 50}] {
		t.Fatalf("merged (shard, rid) pairs %v, want (0,10) (0,30) (1,50)", got)
	}
	if h.State() != "partial" || len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("state %s failed %v, want partial with shard 1 failed", h.State(), failed)
	}

	if _, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Conns: cluster.NewHTTPShards(urls, 0, time.Millisecond, time.Second),
		RIDs:  [][]int{{0}},
	}); err == nil {
		t.Fatal("one row ID table for two connections accepted")
	}
}
