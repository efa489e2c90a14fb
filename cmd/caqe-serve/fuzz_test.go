package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"caqe"
)

// FuzzMutationBody posts arbitrary bytes as a mutation body to both base
// tables of a small server running a standing query. Whatever arrives, the
// server must not panic and must answer with no 5xx other than 503; and a
// mutation it accepts must carry only rows the engine's append rule passes
// (TupleData.Check, which includes the rule that every attribute is finite).
// Each input meets a fresh server, so a finding replays from its saved
// input alone. The seeds are the smoke-test appends of the CI workflow, a
// delete, an anchored append and numbers JSON can spell but a float64 or
// int64 cannot hold; they run in every plain go test.
func FuzzMutationBody(f *testing.F) {
	for _, seed := range []string{
		`{"rows":[{"attrs":[0,0,0,0],"keys":[424242,0]}]}`,
		`{"delete":[3]}`,
		`{"rows":[{"attrs":[1,2,3,4],"keys":[1,1]}],"delete":[5],"anchorAt":2.5}`,
		`{"rows":[{"attrs":[1e999,0,0,0],"keys":[1,1]}]}`,
		`{"rows":[{"attrs":[-1e999,0,0,0],"keys":[1,1]}]}`,
		`{"rows":[{"attrs":[0,0,0,0],"keys":[9223372036854775808,0]}]}`,
		`{"rows":[{"attrs":["NaN",0,0,0],"keys":[1,1]}]}`,
		`{"rows":[{"attrs":[0,0,0],"keys":[1,1]}]}`,
		`{"delete":[-1]}`,
		`{"anchorAt":-1,"delete":[0]}`,
		`{"rows":[],"delete":[]}`,
		`{nope`,
	} {
		f.Add([]byte(seed))
	}

	cfg := testConfig()
	cfg.N = 60
	rRel, tRel, _, _, err := buildDataset(cfg.N, cfg.Dims, cfg.Keys, cfg.Dist, cfg.Sel, cfg.Seed)
	if err != nil {
		f.Fatal(err)
	}
	schemas := map[string]*caqe.Schema{"r": &rRel.Schema, "t": &tRel.Schema}

	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.drain()
		h := srv.routes()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/queries",
			bytes.NewReader([]byte(`{"name":"standing","jc":0,"pref":[0,1],"standing":true,"contract":{"class":"softdeadline","deadline":10}}`))))
		if rec.Code != http.StatusCreated {
			t.Fatalf("standing query: status %d: %s", rec.Code, rec.Body)
		}

		for _, table := range []string{"r", "t"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/data/"+table, bytes.NewReader(body)))
			if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("POST /data/%s: status %d: %s", table, rec.Code, rec.Body)
			}
			if rec.Code != http.StatusOK {
				continue
			}
			// Decoded as the handler decodes it: these are the rows it took.
			var req mutateRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("POST /data/%s accepted a body that does not decode: %v", table, err)
			}
			for i, row := range req.Rows {
				if err := row.Check(schemas[table]); err != nil {
					t.Fatalf("POST /data/%s accepted row %d %+v: %v", table, i, row, err)
				}
			}
		}
	})
}
