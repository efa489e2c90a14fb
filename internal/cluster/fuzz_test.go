package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
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
