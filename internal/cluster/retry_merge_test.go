package cluster_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"caqe/internal/cluster"
	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/run"
	"caqe/internal/trace"
)

// TestHTTPConnHonorsRetryAfter waits out the shard's Retry-After hint
// before retrying instead of the (much shorter) configured backoff.
func TestHTTPConnHonorsRetryAfter(t *testing.T) {
	shard := &fakeShard{
		rejections: 1, retryAfter: "1",
		stream: []string{emitLine(0, 0, 1, 1), `{"done":true,"state":"done"}`},
	}
	srv := httptest.NewServer(shard.handler())
	defer srv.Close()
	conn := cluster.NewHTTPConn(cluster.HTTPConnConfig{
		BaseURL: srv.URL, Retries: 2, RetryBackoff: time.Millisecond,
	})
	start := time.Now()
	if _, err := conn.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %v despite Retry-After: 1", elapsed)
	}
}

// TestHTTPConnRetryAfterParsed surfaces the hint on the StatusError so
// callers (and retryDelay) can see it, without sleeping in the test: with
// zero retries the rejection comes straight back.
func TestHTTPConnRetryAfterParsed(t *testing.T) {
	shard := &fakeShard{rejections: 100, retryAfter: "7"}
	srv := httptest.NewServer(shard.handler())
	defer srv.Close()
	conn := cluster.NewHTTPConn(cluster.HTTPConnConfig{BaseURL: srv.URL})
	_, err := conn.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}})
	var se *cluster.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s", se.RetryAfter)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestHTTPConnNoRetryOnCanceledContext does not retry a submission whose
// underlying request died of context cancellation — the caller gave up,
// more attempts only waste shard admission slots. A hung shard hitting
// the per-attempt deadline stays retryable (TestHTTPConnSubmitTimeout).
func TestHTTPConnNoRetryOnCanceledContext(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		var attempts atomic.Int32
		conn := cluster.NewHTTPConn(cluster.HTTPConnConfig{
			BaseURL: "http://shard.invalid",
			Client: &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
				attempts.Add(1)
				return nil, cause
			})},
			Retries: 5, RetryBackoff: time.Millisecond,
		})
		if _, err := conn.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}}); err == nil {
			t.Fatal("expected submit failure")
		}
		if attempts.Load() != 1 {
			t.Fatalf("%s: %d attempts, want 1 (not retryable)", cause, attempts.Load())
		}
	}
}

// TestHTTPConnHungShardStillRetries pins that per-attempt deadlines remain
// retryable after the context-cancellation fix: a shard that hangs past
// SubmitTimeout is retried up to the configured attempts.
func TestHTTPConnHungShardStillRetries(t *testing.T) {
	shard := &fakeShard{hang: time.Second}
	srv := httptest.NewServer(shard.handler())
	defer srv.Close()
	conn := cluster.NewHTTPConn(cluster.HTTPConnConfig{
		BaseURL: srv.URL, Retries: 2, RetryBackoff: time.Millisecond,
		SubmitTimeout: 20 * time.Millisecond,
	})
	if _, err := conn.Submit(cluster.QuerySpec{JC: 0, Pref: []int{0}}); err == nil {
		t.Fatal("expected timeout failure")
	}
	if conn.Retries() != 2 {
		t.Fatalf("retries %d, want 2", conn.Retries())
	}
}

func mergeCand(shard, rid, tid int, t float64, out ...float64) cluster.Candidate {
	return cluster.Candidate{Shard: shard, Emission: run.Emission{Query: 0, RID: rid, TID: tid, Out: out, Time: t}}
}

// TestMergeTwoShards pins a two-shard fold by hand. Shard 0's three
// candidates take 0+1+2 comparisons. On shard 1, (2,2) is compared with
// all three survivors and evicts (3,2); (1,5) stops at the first one,
// (1,4), which dominates it; (4,1) is compared with all three and stays
// beside its equal. That is 3+1+3 = 7 comparisons, 10 in all.
func TestMergeTwoShards(t *testing.T) {
	byShard := [][]cluster.Candidate{
		{mergeCand(0, 1, 1, 2.0, 1, 4), mergeCand(0, 2, 2, 1.0, 3, 2), mergeCand(0, 3, 3, 1.0, 4, 1)},
		{mergeCand(1, 10, 10, 1.0, 2, 2), mergeCand(1, 11, 11, 1.0, 1, 5), mergeCand(1, 12, 12, 2.0, 4, 1)},
	}
	kern := preference.NewKernel(preference.NewSubspace(0, 1))
	var evs []trace.Event
	clock := metrics.NewClock()
	out, st := cluster.Merge(&kern, byShard, clock,
		traceFunc(func(ev trace.Event) { evs = append(evs, ev) }), "CAQE", 0)

	if st != (cluster.MergeStats{CandsIn: 6, CandsOut: 4, Cmps: 10}) {
		t.Fatalf("stats %+v, want 6 in, 4 out, 10 comparisons", st)
	}
	if got := clock.Counters().SkylineCmps; got != 10 {
		t.Fatalf("clock charged %d comparisons, want 10", got)
	}
	// (time, shard, rid, tid) order.
	var rids []int
	for _, c := range out {
		rids = append(rids, c.RID)
	}
	if want := []int{3, 10, 1, 12}; !reflect.DeepEqual(rids, want) {
		t.Fatalf("survivors %v, want %v", rids, want)
	}
	if len(evs) != 2 {
		t.Fatalf("traced %d shardmerge events, want 2", len(evs))
	}
	for i, want := range []struct{ in, out, cmps int }{{3, 3, 3}, {3, 4, 7}} {
		if ev := evs[i]; ev.Shard != i || ev.CandsIn != want.in || ev.CandsOut != want.out || ev.Count != want.cmps {
			t.Fatalf("event %d = %+v, want shard %d, %d in, %d out, %d comparisons",
				i, ev, i, want.in, want.out, want.cmps)
		}
	}
}

// TestMergeSingleShardAligned pins that a single-shard gather goes through
// the same (time, shard, rid, tid) ordering and KindShardMerge tracing as
// an N-shard gather where only that shard is non-empty — while still
// charging zero comparisons (the local skyline is already the global one).
func TestMergeSingleShardAligned(t *testing.T) {
	// A valid local skyline (pairwise incomparable), deliberately out of
	// delivery order.
	mk := func() [][]cluster.Candidate {
		return [][]cluster.Candidate{{
			mergeCand(0, 5, 1, 3.0, 1, 4),
			mergeCand(0, 2, 9, 1.0, 2, 3),
			mergeCand(0, 7, 4, 2.0, 3, 2),
			mergeCand(0, 1, 8, 1.0, 4, 1),
		}}
	}
	kern := preference.NewKernel(preference.NewSubspace(0, 1))

	var oneEvs []trace.Event
	oneClock := metrics.NewClock()
	one, oneStats := cluster.Merge(&kern, mk(),
		oneClock, traceFunc(func(ev trace.Event) { oneEvs = append(oneEvs, ev) }), "CAQE", 0)

	var manyEvs []trace.Event
	manyClock := metrics.NewClock()
	many, manyStats := cluster.Merge(&kern, append(mk(), nil, nil),
		manyClock, traceFunc(func(ev trace.Event) { manyEvs = append(manyEvs, ev) }), "CAQE", 0)

	if len(one) != len(many) {
		t.Fatalf("single-shard kept %d, sparse gather kept %d", len(one), len(many))
	}
	for i := range one {
		if one[i].RID != many[i].RID || one[i].TID != many[i].TID || one[i].Time != many[i].Time {
			t.Fatalf("order diverges at %d: %+v vs %+v", i, one[i], many[i])
		}
	}
	for i, want := range []struct{ rid, tid int }{{1, 8}, {2, 9}, {7, 4}, {5, 1}} {
		if one[i].RID != want.rid || one[i].TID != want.tid {
			t.Fatalf("survivor %d = (%d,%d), want (%d,%d) — not (time,shard,rid,tid) order",
				i, one[i].RID, one[i].TID, want.rid, want.tid)
		}
	}
	if len(oneEvs) != 1 || len(manyEvs) != 1 {
		t.Fatalf("traced %d/%d shardmerge events, want 1 each", len(oneEvs), len(manyEvs))
	}
	for _, ev := range []trace.Event{oneEvs[0], manyEvs[0]} {
		if err := ev.Validate(); err != nil {
			t.Fatalf("invalid event %+v: %v", ev, err)
		}
		if ev.Kind != trace.KindShardMerge || ev.Shard != 0 || ev.CandsIn != 4 || ev.CandsOut != 4 {
			t.Fatalf("event %+v, want shard 0 with 4 in / 4 out", ev)
		}
	}
	if oneStats.Cmps != 0 {
		t.Fatalf("single-shard merge charged %d comparisons, want 0", oneStats.Cmps)
	}
	if oneStats.CandsIn != manyStats.CandsIn || oneStats.CandsOut != manyStats.CandsOut {
		t.Fatalf("stats diverge: %+v vs %+v", oneStats, manyStats)
	}
	if oneClock.Counters().SkylineCmps != 0 {
		t.Fatalf("single-shard merge advanced the clock by %d cmps", oneClock.Counters().SkylineCmps)
	}

	// Empty single-shard gather: no event, no survivors.
	var emptyEvs []trace.Event
	out, _ := cluster.Merge(&kern, [][]cluster.Candidate{nil},
		metrics.NewClock(), traceFunc(func(ev trace.Event) { emptyEvs = append(emptyEvs, ev) }), "CAQE", 0)
	if len(out) != 0 || len(emptyEvs) != 0 {
		t.Fatalf("empty gather produced %d survivors, %d events", len(out), len(emptyEvs))
	}
}
