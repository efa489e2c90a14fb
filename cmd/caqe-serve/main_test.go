package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"caqe"
	"caqe/internal/cluster"
	"caqe/internal/run"
)

const (
	testN    = 150
	testDims = 4
	testKeys = 2
	testSel  = 0.05
	testSeed = 21
)

func testConfig() serverConfig {
	return serverConfig{
		N: testN, Dims: testDims, Keys: testKeys, Sel: testSel, Seed: testSeed,
	}
}

// testQueries is the workload the end-to-end test submits over HTTP; the
// batch reference run uses the exact same queries.
func testQueries() []cluster.QuerySpec {
	return []cluster.QuerySpec{
		{Name: "alpha", JC: 0, Pref: []int{0, 1}, Priority: 0.4, Contract: cluster.ContractSpec{Class: "softdeadline", Deadline: 10}},
		{Name: "beta", JC: 0, Pref: []int{1, 2, 3}, Priority: 0.8, Contract: cluster.ContractSpec{Class: "softdeadline", Deadline: 10}},
		{Name: "gamma", JC: 1, Pref: []int{0, 2}, Priority: 0.1, Contract: cluster.ContractSpec{Class: "softdeadline", Deadline: 10}},
	}
}

// batchReference runs the same workload through the batch entry point on
// an identically-seeded dataset.
func batchReference(t *testing.T) *run.Report {
	t.Helper()
	sels := []float64{testSel, testSel}
	r, tt, err := caqe.GeneratePair(testN, testDims, caqe.Independent, sels, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	w := &caqe.Workload{
		JoinConds: []caqe.EquiJoin{
			{Name: "JC0", LeftKey: 0, RightKey: 0},
			{Name: "JC1", LeftKey: 1, RightKey: 1},
		},
		OutDims: []caqe.MapFunc{
			caqe.SumDim("d0", 0), caqe.SumDim("d1", 1),
			caqe.SumDim("d2", 2), caqe.SumDim("d3", 3),
		},
	}
	for _, qr := range testQueries() {
		w.Queries = append(w.Queries, caqe.Query{
			Name: qr.Name, JC: qr.JC, Pref: caqe.Dims(qr.Pref...),
			Priority: qr.Priority, Contract: caqe.SoftDeadline(qr.Contract.Deadline),
		})
	}
	rep, err := caqe.Run(w, r, tt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func submit(t *testing.T, ts *httptest.Server, qr cluster.QuerySpec) (cluster.SubmitReply, int) {
	t.Helper()
	body, _ := json.Marshal(qr)
	resp, err := http.Post(ts.URL+"/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out cluster.SubmitReply
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// streamResults reads a query's NDJSON result stream to completion,
// returning its emissions plus any lag notices and the terminal done
// record. Every stream must end with exactly one done record.
func streamResults(t *testing.T, ts *httptest.Server, id int) ([]run.Emission, []int64, cluster.StreamRecord) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/queries/%d/results", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var (
		got  []run.Emission
		lags []int64
		end  cluster.StreamRecord
		ends int
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var cp cluster.StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &cp); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case cp.Done != nil:
			end, ends = cp, ends+1
		case cp.Lag != nil:
			lags = append(lags, *cp.Lag)
		default:
			if ends > 0 {
				t.Fatalf("emission after done record: %q", sc.Text())
			}
			var e run.Emission
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("bad stream line %q: %v", sc.Text(), err)
			}
			got = append(got, e)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if ends != 1 {
		t.Fatalf("query %d stream: saw %d done records, want exactly 1", id, ends)
	}
	return got, lags, end
}

func keysOf(es []run.Emission) []run.ResultKey {
	keys := make([]run.ResultKey, 0, len(es))
	for _, e := range es {
		keys = append(keys, run.ResultKey{RID: e.RID, TID: e.TID})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].RID != keys[j].RID {
			return keys[i].RID < keys[j].RID
		}
		return keys[i].TID < keys[j].TID
	})
	return keys
}

// TestServeEndToEnd is the server smoke/acceptance path: submit a workload
// over HTTP, stream every query's results, and check each stream carries
// exactly the result set a batch Run delivers on the same seed.
func TestServeEndToEnd(t *testing.T) {
	ref := batchReference(t)

	srv, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	ids := make([]int, 0, 3)
	for _, qr := range testQueries() {
		qres, status := submit(t, ts, qr)
		if status != http.StatusCreated {
			t.Fatalf("submit %s: status %d", qr.Name, status)
		}
		ids = append(ids, qres.ID)
	}

	for qi, id := range ids {
		es, lags, end := streamResults(t, ts, id)
		if len(lags) != 0 {
			t.Errorf("query %d: unexpected lag notices %v with default unbounded buffer", qi, lags)
		}
		if end.Done == nil || !*end.Done || end.State != "done" {
			t.Errorf("query %d: terminal record %+v, want done=true state=done", qi, end)
		}
		got := keysOf(es)
		want := ref.ResultSet(qi)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %d: streamed %d results, batch run has %d (or sets differ)",
				qi, len(got), len(want))
		}
	}

	// Stats must show every query finished with its deliveries accounted.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st caqe.SessionStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Submitted != len(ids) || !st.Started {
		t.Errorf("stats: %+v", st)
	}
	for _, qs := range st.Queries {
		if qs.State != "done" {
			t.Errorf("query %d state %s", qs.ID, qs.State)
		}
		if want := len(ref.ResultSet(qs.ID)); qs.Delivered != want {
			t.Errorf("query %d delivered %d, want %d", qs.ID, qs.Delivered, want)
		}
	}

	// Graceful drain: close the session, then health reports draining and
	// new submissions bounce with 503.
	srv.drain()
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: %d", hresp.StatusCode)
	}
	if _, status := submit(t, ts, testQueries()[0]); status != http.StatusServiceUnavailable {
		t.Errorf("submit after drain: %d", status)
	}
}

// TestServeSSE checks the event-stream framing of the results endpoint.
func TestServeSSE(t *testing.T) {
	srv, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	defer srv.drain()

	qres, status := submit(t, ts, testQueries()[0])
	if status != http.StatusCreated {
		t.Fatalf("submit: %d", status)
	}
	req, _ := http.NewRequest("GET", fmt.Sprintf("%s/queries/%d/results", ts.URL, qres.ID), nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var data, done int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data++
		case line == "event: done":
			done++
		}
	}
	if done != 1 {
		t.Errorf("saw %d done events", done)
	}
	if data == 0 {
		t.Error("no data frames streamed")
	}
}

// TestServeAdmission pins the admission status codes: 429 beyond the
// concurrent cap, slot reuse after DELETE, 404 for unknown queries, 400
// for malformed bodies.
func TestServeAdmission(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 2
	cfg.noAutoStart = true // keep queries queued so the cap binds deterministically
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	defer srv.drain()

	qs := testQueries()
	for i := 0; i < 2; i++ {
		if _, status := submit(t, ts, qs[i]); status != http.StatusCreated {
			t.Fatalf("submit %d: status %d", i, status)
		}
	}
	if _, status := submit(t, ts, qs[2]); status != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: status %d", status)
	}

	// Cancelling an open query frees its admission slot.
	req, _ := http.NewRequest("DELETE", ts.URL+"/queries/1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	if _, status := submit(t, ts, qs[2]); status != http.StatusCreated {
		t.Fatalf("post-cancel submit: status %d", status)
	}

	for _, path := range []string{"/queries/99", "/queries/99/results"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}

	bad, err := http.Post(ts.URL+"/queries", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed submit: status %d", bad.StatusCode)
	}
}
