package session

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"caqe/internal/core"
)

// TestQueryStatsJSONRoundTrip pins the wire shape of per-query stats:
// buffered and coalesced serialize even at zero (clients distinguish "no
// backlog" from "field absent"), and a marshal/unmarshal cycle is
// lossless.
func TestQueryStatsJSONRoundTrip(t *testing.T) {
	zero := QueryStats{ID: 3, Name: "q", State: "running"}
	b, err := json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"buffered":0`, `"coalesced":0`, `"ttfrSeconds":0`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("zero-valued %s missing from %s", key, b)
		}
	}

	full := QueryStats{
		ID: 7, Name: "beta", State: "lagging", Arrival: 1.5,
		Delivered: 42, Satisfaction: 0.875, Buffered: 9, Coalesced: 3,
		TTFRSeconds: 0.0125,
	}
	b, err = json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var back QueryStats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, back) {
		t.Errorf("round trip lost data:\n%+v\n%+v", full, back)
	}
}

// TestMutationStatsJSONRoundTrip pins the wire shape of the mutation
// counters /stats serves: every key is present at zero — the two that
// explain a delete's cost included — the engine's counters come first in
// their declared order, and a marshal/unmarshal cycle is lossless.
func TestMutationStatsJSONRoundTrip(t *testing.T) {
	b, err := json.Marshal(MutationStats{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"appended", "deleted", "cellsTouched", "regionsRevived", "regionsCreated", "entriesRemoved", "resettled", "pending"} {
		if !strings.Contains(string(b), `"`+key+`":0`) {
			t.Errorf("zero-valued %q missing from %s", key, b)
		}
	}

	full := MutationStats{DeltaStats: core.DeltaStats{Appended: 9, Deleted: 4, CellsTouched: 7, RegionsRevived: 31, RegionsCreated: 2, EntriesRemoved: 5, Resettled: 40}, Pending: 1}
	b, err = json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"appended":9,"deleted":4,"cellsTouched":7,"regionsRevived":31,"regionsCreated":2,"entriesRemoved":5,"resettled":40,"pending":1}`
	if string(b) != want {
		t.Errorf("marshalled %s, want %s", b, want)
	}
	var back MutationStats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if full != back {
		t.Errorf("round trip lost data:\n%+v\n%+v", full, back)
	}
}
