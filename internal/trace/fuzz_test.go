package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzTraceLine drives the strict reader behind caqe-trace -validate with
// arbitrary lines. ValidateLine must never panic, and an event it accepts
// must survive a round trip: re-marshalled, it validates again and encodes
// to the same bytes. The seeds are lines of a traced CAQE run (one per
// event kind, a mutation's append and delete deltas) plus two lines with
// data after the event; they run under plain `go test`.
func FuzzTraceLine(f *testing.F) {
	for _, seed := range []string{
		`{"seq":0,"kind":"start","strategy":"CAQE","t":0,"region":-1,"query":-1,"runnerUp":-1,"shard":-1}`,
		`{"seq":1,"kind":"decision","strategy":"CAQE","t":0.35506,"region":0,"query":-1,"runnerUp":-1,"csm":5.392713248533553,"shard":-1,"queries":[0,1,2,3,4,5,6,7,8,9,10]}`,
		`{"seq":2,"kind":"op","strategy":"CAQE","t":0.35506,"region":0,"query":-1,"runnerUp":-1,"count":36,"op":"PartitionScan","shard":-1}`,
		`{"seq":4,"kind":"discard","strategy":"CAQE","t":0.36366,"region":3,"query":0,"runnerUp":-1,"shard":-1}`,
		`{"seq":264,"kind":"emit","strategy":"CAQE","t":0.45708999999999994,"region":-1,"query":2,"runnerUp":-1,"tEnd":0.45708999999999994,"count":1,"shard":-1}`,
		`{"seq":270,"kind":"feedback","strategy":"CAQE","t":0.45932,"region":-1,"query":-1,"runnerUp":-1,"shard":-1,"queries":[0,1,2],"weights":[1.7,1.6099999999999999,1.3199999999999998],"deltas":[0.2,0.2,0]}`,
		`{"seq":46,"kind":"delta","strategy":"CAQE","t":0.96242,"region":-1,"query":-1,"runnerUp":-1,"count":15,"op":"append-t","cells":9,"revived":50,"shard":-1}`,
		`{"seq":47,"kind":"delta","strategy":"CAQE","t":1.16334,"region":-1,"query":-1,"runnerUp":-1,"count":2,"op":"delete-r","cells":2,"revived":24,"resettled":5,"shard":-1}`,
		`{"seq":332,"kind":"end","strategy":"CAQE","t":0.60934,"region":-1,"query":-1,"runnerUp":-1,"shard":-1,"endTime":0.60934,"counters":{"JoinProbes":324,"JoinResults":30,"SkylineCmps":468,"CellOps":26137,"TuplesEmitted":28,"RegionsDone":12,"RegionsPruned":564,"CuboidSubspace":15}}`,
		`{"kind":"start","strategy":"CAQE","t":0} {"kind":"bogus"}`,
		`{"kind":"start","strategy":"CAQE","t":0}garbage`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := ValidateLine(line)
		if err != nil {
			return
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("accepted event does not marshal: %v", err)
		}
		back, err := ValidateLine(b)
		if err != nil {
			t.Fatalf("re-marshalled event %s rejected: %v", b, err)
		}
		// Compare encodings: an empty slice and an absent one are the
		// same event on the wire (omitempty drops both).
		b2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("round trip changed the event:\n%s\n%s", b, b2)
		}
	})
}
