package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestSubmitRepliesRepeat runs one scripted session on the virtual clock
// several times: each query is submitted, then its stream read to the done
// record, so every submission finds the engine idle. The submit replies
// must be the same bytes in every run. A reply that read the live state
// after Submit returned raced the executor: the same request answered
// "running" in one run and "done" in another.
func TestSubmitRepliesRepeat(t *testing.T) {
	var first [][]byte
	for run := range 8 {
		cfg := testConfig()
		cfg.N = 40
		srv, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.routes())
		var replies [][]byte
		for i, qr := range append(testQueries(), testQueries()...) {
			body, _ := json.Marshal(qr)
			resp, err := http.Post(ts.URL+"/queries", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			reply, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusCreated {
				t.Fatalf("run %d submit %d: status %d, %v", run, i, resp.StatusCode, err)
			}
			replies = append(replies, reply)
			streamResults(t, ts, i)
		}
		ts.Close()
		srv.drain()
		if run == 0 {
			first = replies
			continue
		}
		for i := range replies {
			if !bytes.Equal(replies[i], first[i]) {
				t.Fatalf("run %d submit %d replied %s, run 0 %s", run, i, replies[i], first[i])
			}
		}
	}
	t.Logf("%s", bytes.Join(first, nil))
}
