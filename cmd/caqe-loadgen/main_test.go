package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServer answers the three calls loadgen makes. submit picks the reply
// to the n-th submission (a 201 carries query id n-1), stream writes the
// results reply, and cancel is the status every DELETE gets.
type fakeServer struct {
	submit func(n int64) (status int, retryAfter string)
	stream func(w http.ResponseWriter)
	cancel int
	posts  atomic.Int64
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == "POST" && r.URL.Path == "/queries":
		n := f.posts.Add(1)
		status, ra := f.submit(n)
		if ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.WriteHeader(status)
		if status == http.StatusCreated {
			fmt.Fprintf(w, `{"id":%d,"name":"lg","jc":0,"pref":[0]}`, n-1)
		}
	case r.Method == "GET" && strings.HasSuffix(r.URL.Path, "/results"):
		f.stream(w)
	case r.Method == "DELETE":
		w.WriteHeader(f.cancel)
	default:
		http.NotFound(w, r)
	}
}

// ndjson streams the given lines with status 200.
func ndjson(lines ...string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
}

const emission = `{"Query":0,"RID":1,"TID":2,"Out":[0.5],"Time":1}`

func start(t *testing.T, f *fakeServer) config {
	t.Helper()
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return config{URL: ts.URL, Sessions: 1, Dims: 4, Keys: 2, Seed: 1}
}

func submitStatus(status int, retryAfter string) func(int64) (int, string) {
	return func(int64) (int, string) { return status, retryAfter }
}

func TestShedIsCountedNotFailed(t *testing.T) {
	cases := []struct {
		status     int
		retryAfter string
		counter    func(*counters) int64
	}{
		{http.StatusTooManyRequests, "1", func(c *counters) int64 { return c.rejected429.Load() }},
		{http.StatusServiceUnavailable, "1", func(c *counters) int64 { return c.rejected503.Load() }},
		{http.StatusConflict, "", func(c *counters) int64 { return c.rejected409.Load() }},
	}
	for _, c := range cases {
		cfg := start(t, &fakeServer{submit: submitStatus(c.status, c.retryAfter)})
		var cnt counters
		// The context ends the Retry-After backoff early.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, ok := submitOne(ctx, 0, cfg, http.DefaultClient, rand.New(rand.NewSource(1)), &cnt)
		cancel()
		if ok {
			t.Errorf("%d: submission reported admitted", c.status)
		}
		if got := c.counter(&cnt); got != 1 {
			t.Errorf("%d: counted %d rejections, want 1", c.status, got)
		}
		if cnt.unexpected5xx.Load() != 0 || cnt.streamErrors.Load() != 0 {
			t.Errorf("%d: counted as a failure: %d unexpected 5xx, %d stream errors",
				c.status, cnt.unexpected5xx.Load(), cnt.streamErrors.Load())
		}
	}
}

func TestUnexpected5xx(t *testing.T) {
	cfg := start(t, &fakeServer{submit: submitStatus(http.StatusInternalServerError, "")})
	var cnt counters
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, ok := submitOne(ctx, 0, cfg, http.DefaultClient, rand.New(rand.NewSource(1)), &cnt); ok {
		t.Error("a 500 submission reported admitted")
	}
	if got := cnt.unexpected5xx.Load(); got != 1 {
		t.Errorf("submit 500: %d unexpected 5xx, want 1", got)
	}

	cfg = start(t, &fakeServer{stream: func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusInternalServerError)
	}})
	cnt = counters{}
	streamOne(context.Background(), cfg, http.DefaultClient, 0, false, -1, &cnt)
	if got := cnt.unexpected5xx.Load(); got != 1 {
		t.Errorf("stream 500: %d unexpected 5xx, want 1", got)
	}
}

func TestStreamRecords(t *testing.T) {
	cfg := start(t, &fakeServer{stream: ndjson(
		emission, `{"lag":3}`, emission, `{"done":true,"partial":true,"failedShards":[1]}`)})
	var cnt counters
	streamOne(context.Background(), cfg, http.DefaultClient, 0, false, -1, &cnt)
	if e, c, p := cnt.emissions.Load(), cnt.completed.Load(), cnt.partials.Load(); e != 2 || c != 1 || p != 1 {
		t.Errorf("emissions, completed, partials = %d, %d, %d; want 2, 1, 1", e, c, p)
	}
	if cnt.streamErrors.Load() != 0 {
		t.Errorf("%d stream errors", cnt.streamErrors.Load())
	}
}

func TestCancelReplies(t *testing.T) {
	// 204 is a server's reply, 200 (with the query's status) a coordinator's.
	for _, status := range []int{http.StatusNoContent, http.StatusOK} {
		cfg := start(t, &fakeServer{cancel: status, stream: ndjson(emission, emission, `{"done":true}`)})
		var cnt counters
		streamOne(context.Background(), cfg, http.DefaultClient, 0, false, 0, &cnt)
		if cnt.cancelled.Load() != 1 || cnt.emissions.Load() != 1 || cnt.completed.Load() != 0 {
			t.Errorf("%d: cancelled %d after %d emissions (%d completed); want 1 after 1 (0)",
				status, cnt.cancelled.Load(), cnt.emissions.Load(), cnt.completed.Load())
		}
		cnt = counters{}
		cancelOne(context.Background(), cfg, http.DefaultClient, 0, &cnt)
		if cnt.cancelled.Load() != 1 || cnt.unexpected5xx.Load() != 0 {
			t.Errorf("%d: cancelOne counted %d cancels, %d unexpected 5xx", status,
				cnt.cancelled.Load(), cnt.unexpected5xx.Load())
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	f := &fakeServer{
		// The first submission is shed; every later one is admitted.
		submit: func(n int64) (int, string) {
			if n == 1 {
				return http.StatusConflict, ""
			}
			return http.StatusCreated, ""
		},
		stream: ndjson(emission, `{"lag":1}`, emission, `{"done":true}`),
		cancel: http.StatusNoContent,
	}
	cfg := start(t, f)
	cfg.CancelPct = 0.5
	var cnt counters
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	session(ctx, 0, cfg, http.DefaultClient, &cnt)
	if cnt.rejected409.Load() != 1 {
		t.Errorf("rejected409 = %d, want 1", cnt.rejected409.Load())
	}
	sub, done, canc := cnt.submitted.Load(), cnt.completed.Load(), cnt.cancelled.Load()
	if sub < 2 || done < 1 || canc < 1 || done+canc < sub-1 || done+canc > sub {
		t.Errorf("submitted %d, completed %d, cancelled %d: every admitted query but the last must end one way", sub, done, canc)
	}
	if cnt.unexpected5xx.Load() != 0 || cnt.streamErrors.Load() != 0 {
		t.Errorf("%d unexpected 5xx, %d stream errors", cnt.unexpected5xx.Load(), cnt.streamErrors.Load())
	}
}
