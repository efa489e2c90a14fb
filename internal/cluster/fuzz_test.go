package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"caqe/internal/run"
)

// FuzzQuerySpec drives the one wire spec the way a POST /queries body
// travels: the strict decode caqe-serve's decodeBody performs, QuerySpec.Query,
// the admission rules (workload.Query.Validate over caqe-serve's 2 join
// conditions × 4 output dimensions), then the accepted query's contract
// tracker at small and large virtual times. Nothing may panic, and the
// tracker calls of one input must return within 2 s — a body is outside
// input, and the executor goroutine that serves every stream runs them. The
// seeds run under plain `go test`.
func FuzzQuerySpec(f *testing.F) {
	for _, seed := range []string{
		`{"name":"smoke","jc":0,"pref":[0,1],"priority":0.5,"contract":{"class":"softdeadline","deadline":10}}`,
		`{nope`,
		`{"jc":0,"pref":[0,1],"contract":{"class":"ratequota"}}`,
		`{"jc":0,"pref":[0,1],"contract":{"class":"hybrid","frac":-1,"interval":5}}`,
		`{"jc":0,"pref":[0,2],"contract":{"class":"ratequota","frac":0.1,"interval":1e-10}}`,
		`{"jc":0,"pref":[0,2],"contract":{"class":"hybrid","frac":0.1,"interval":1e-300}}`,
		`{"jc":1,"pref":[-1,2],"contract":{"class":"deadline","deadline":5}}`,
		`{"jc":1,"pref":[3,3,3],"contract":{"class":"logdecay"}}`,
		`{"jc":0,"pref":[0,1],"estTotal":-1,"contract":{"class":"ratequota","frac":0.5,"interval":2}}`,
		`{"jc":0,"pref":[0,1],"priority":1e308}`,
		`{"jc":0,"pref":[0,1],"unknown":true}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec QuerySpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		q, err := spec.Query()
		if err != nil || q.Validate(2, 4) != nil {
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			tr := q.Contract.NewTracker(spec.EstTotal)
			for _, ts := range []float64{0, 1e-3, 1, 92.5, 1e6} {
				tr.Observe(ts)
				_ = tr.Runtime()
			}
			tr.Finalize(1e6)
			if got, want := len(tr.Utilities()), tr.Count(); got != want {
				t.Errorf("%d utilities for %d observations", got, want)
			}
			_ = tr.Runtime()
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("tracker calls still running after 2 s")
		}
	})
}

// replayConn is a shard transport whose every query gathers a fixed,
// already-gathered outcome.
type replayConn struct {
	ems []run.Emission
	err error
}

func (c replayConn) Submit(QuerySpec) (ShardQuery, error) { return c, nil }
func (c replayConn) Close() error                         { return nil }
func (c replayConn) Cancel() error                        { return nil }
func (c replayConn) Gather(context.Context) ([]run.Emission, error) {
	return c.ems, c.err
}

// FuzzStreamRecord drives a shard's NDJSON result stream the way it reaches
// a coordinator: the fuzzed bytes are served as the body of GET
// /queries/0/results, httpQuery.Gather parses them, and a two-shard
// coordinator gathers and merges that outcome beside a well-formed shard
// under a 4-dim preference. Nothing may panic, everything must finish
// within 2 s, and the query must end done exactly when the fuzzed stream
// was complete and well-formed — otherwise partial, with the fuzzed shard
// (and only it) listed as failed. The seeds run under plain `go test`.
func FuzzStreamRecord(f *testing.F) {
	const done = `{"done":true,"state":"done"}`
	for _, seed := range []string{
		`{"Query":0,"RID":1,"TID":1,"Out":[1,2,3,4],"Time":1}` + "\n" + done,
		`{"Query":0,"RID":0,"TID":1,"Out":[1],"Time":1}` + "\n" + done,
		`{"Query":0,"RID":-1,"TID":1,"Out":[1,2,3,4],"Time":1}` + "\n" + done,
		`{"Query":0,"RID":9223372036854775807,"TID":1,"Out":[1,2,3,4],"Time":1}` + "\n" + done,
		`{"done":false}`,
		`{"lag":3}`,
		`{"RID":0,"Out":[` + strings.Repeat("1,", 600_000) + `1]}` + "\n" + done,
		`{"Query":0,"RID":2,"TID":1,"Out":[4,3,2,1],"Time":1}`,
		done,
		`{nope`,
	} {
		f.Add([]byte(seed))
	}
	var body atomic.Pointer[[]byte]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(*body.Load())
	}))
	f.Cleanup(srv.Close)
	conn := NewHTTPConn(HTTPConnConfig{BaseURL: srv.URL})
	good := replayConn{ems: []run.Emission{{RID: 0, TID: 0, Out: []float64{2, 2, 2, 2}, Time: 1}}}
	ids := []int{0, 1, 2, 3}

	f.Fuzz(func(t *testing.T, stream []byte) {
		body.Store(&stream)
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			ems, gerr := (&httpQuery{conn: conn, id: 0}).Gather(ctx)
			coord, err := NewCoordinator(CoordinatorConfig{
				Conns: []ShardConn{replayConn{ems, gerr}, good},
				RIDs:  [][]int{ids, ids},
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer coord.Close()
			h, err := coord.Submit(QuerySpec{JC: 0, Pref: []int{0, 1, 2, 3}})
			if err != nil {
				t.Error(err)
				return
			}
			if err := h.Wait(ctx); err != nil {
				t.Errorf("gather and merge: %v", err)
				return
			}
			wellFormed := gerr == nil
			for _, e := range ems {
				wellFormed = wellFormed && e.RID >= 0 && e.RID < len(ids) && len(e.Out) >= 4
			}
			_, _, failed := h.Results()
			switch st := h.State(); {
			case st == "done" && wellFormed && len(failed) == 0:
			case st == "partial" && !wellFormed && len(failed) == 1 && failed[0] == 0:
			default:
				t.Errorf("state %s, failed shards %v, for a stream with gather error %v and %d emissions",
					st, failed, gerr, len(ems))
			}
		}()
		select {
		case <-finished:
		case <-time.After(2 * time.Second):
			t.Fatalf("gather and merge still running after 2 s")
		}
	})
}
