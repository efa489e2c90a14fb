package cluster

import (
	"fmt"
	"strings"

	"caqe/internal/contract"
	"caqe/internal/preference"
	"caqe/internal/run"
	"caqe/internal/workload"
)

// ContractSpec is the transport-neutral wire form of a progressiveness
// contract — the same JSON shape caqe-serve accepts on POST /queries, so a
// coordinator can forward a submission to shard nodes verbatim.
type ContractSpec struct {
	// Class: deadline (C1), logdecay (C2), softdeadline (C3, default with
	// Deadline 30), ratequota (C4), hybrid (C5).
	Class    string  `json:"class"`
	Deadline float64 `json:"deadline,omitempty"` // virtual seconds, C1/C3
	Frac     float64 `json:"frac,omitempty"`     // result fraction per interval, C4/C5
	Interval float64 `json:"interval,omitempty"` // virtual seconds, C4/C5
}

// Build constructs the contract the spec describes.
func (cr ContractSpec) Build() (contract.Contract, error) {
	switch class := strings.ToLower(cr.Class); class {
	case "", "softdeadline":
		d := cr.Deadline
		if d <= 0 {
			d = 30
		}
		return contract.C3(d), nil
	case "deadline":
		if cr.Deadline <= 0 {
			return nil, fmt.Errorf("contract class deadline needs a positive deadline")
		}
		return contract.C1(cr.Deadline), nil
	case "logdecay":
		return contract.C2(), nil
	case "ratequota", "hybrid":
		// C4 and C5 panic on these; a request body must not reach them.
		if cr.Frac <= 0 || cr.Interval <= 0 {
			return nil, fmt.Errorf("contract class %s needs a positive frac and interval", class)
		}
		if class == "hybrid" {
			return contract.C5(cr.Frac, cr.Interval), nil
		}
		return contract.C4(cr.Frac, cr.Interval), nil
	}
	return contract.Contract(nil), fmt.Errorf("unknown contract class %q", cr.Class)
}

// QuerySpec is the transport-neutral form of one session query: what a
// coordinator scatters to every shard. It mirrors caqe-serve's submission
// body exactly, so the HTTP transport forwards it unchanged and the server
// decodes it with the same struct.
type QuerySpec struct {
	Name     string       `json:"name"`
	JC       int          `json:"jc"`       // join condition index
	Pref     []int        `json:"pref"`     // output dimensions of the skyline preference
	Priority float64      `json:"priority"` // [0,1]
	Contract ContractSpec `json:"contract"`
	// EstTotal is the expected global result cardinality for
	// cardinality-based contracts. Shard workers run quota-blind (a shard
	// cannot know the global cardinality), so only the coordinator and
	// single-node servers consume it.
	EstTotal int `json:"estTotal,omitempty"`
	// Standing marks a continuous query: its stream stays open after the
	// current data drains, so base-table mutations keep feeding it.
	Standing bool `json:"standing,omitempty"`
}

// Query materializes the spec as an engine query, building its contract and
// preference subspace. The default name matches caqe-serve's.
func (qs QuerySpec) Query() (workload.Query, error) {
	c, err := qs.Contract.Build()
	if err != nil {
		return workload.Query{}, err
	}
	name := qs.Name
	if name == "" {
		name = fmt.Sprintf("q-jc%d", qs.JC)
	}
	return workload.Query{
		Name:     name,
		JC:       qs.JC,
		Pref:     preference.NewSubspace(qs.Pref...),
		Priority: qs.Priority,
		Contract: c,
		Standing: qs.Standing,
	}, nil
}

// The rest of this file is the caqe-serve wire protocol: every JSON shape a
// server, shard or coordinator node writes to a client. The daemon encodes
// these types; the HTTP shard transport, caqe-loadgen and the tests decode
// them. Emission lines of a server or shard stream are bare run.Emission
// values (capitalized field names), which is what keeps them apart from
// the lowercase control records below.

// SubmitReply is the body of a 201 from POST /queries, and of GET
// /queries/{id} on a server or shard node.
type SubmitReply struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	State   string  `json:"state"`
	Arrival float64 `json:"arrival"` // virtual seconds at admission; 0 on a coordinator
}

// LagRecord notifies the stream that Lag emissions were coalesced away
// because the client fell behind the delivery high-water mark.
type LagRecord struct {
	Lag int64 `json:"lag"`
}

// Candidate is one line of a coordinator's merged stream, and the unit of
// the merge that produces it: a shard emission tagged with its source
// shard. RID/TID are global (Coordinator.gather translates shard-local row
// IDs through the ShardMap table) and Time is the shard-local virtual time
// of the emission.
type Candidate struct {
	run.Emission
	Shard int `json:"shard"`
}

// StreamEnd is the terminal record of a result stream: the stream carried
// the query to its terminal state State, and Done is always true. A client
// that never sees a StreamEnd knows the connection was severed mid-run.
// Coalesced counts the emissions dropped from this stream behind lag
// notices. MergedEnd is set on coordinator streams only.
type StreamEnd struct {
	Done      bool   `json:"done"`
	State     string `json:"state"`
	Coalesced int64  `json:"coalesced,omitempty"` // emissions dropped from this stream
	*MergedEnd
}

// MergedEnd is the coordinator's part of a terminal record: whether any
// shard failed (the merged set is then sound but not exhaustive), the size
// of the merged set and the comparisons the final dominance pass charged.
type MergedEnd struct {
	Partial      bool  `json:"partial,omitempty"`
	FailedShards []int `json:"failedShards,omitempty"`
	Results      int   `json:"results"`
	MergeCmps    int64 `json:"mergeCmps"`
}

// StreamRecord decodes any line of a result stream from either role. The
// record kinds are told apart by which pointer field is set: Done for a
// StreamEnd, Lag for a LagRecord, RID for an emission (Shard too when a
// coordinator sent it).
type StreamRecord struct {
	Done         *bool  `json:"done"`
	State        string `json:"state"`
	Coalesced    int64  `json:"coalesced"`
	Partial      bool   `json:"partial"`
	FailedShards []int  `json:"failedShards"`
	Results      int    `json:"results"`
	MergeCmps    int64  `json:"mergeCmps"`

	Lag *int64 `json:"lag"`

	Shard *int      `json:"shard"`
	Query int       `json:"Query"`
	RID   *int      `json:"RID"`
	TID   int       `json:"TID"`
	Out   []float64 `json:"Out"`
	Time  float64   `json:"Time"`
}
