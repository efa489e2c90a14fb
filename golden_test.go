package caqe_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"caqe"
	"caqe/internal/metrics"
	"caqe/internal/run"
)

// goldenFingerprint is the committed identity of one execution: everything
// the byte-identity contract covers, reduced to a comparable record. The
// emission hash folds every delivery (query, tuple pair, exact virtual
// timestamp bits, exact output coordinate bits) in order, so any schedule,
// timestamp or value drift changes it.
type goldenFingerprint struct {
	Config    string           `json:"config"`
	EndTime   float64          `json:"endTime"`
	Counters  metrics.Counters `json:"counters"`
	PerQuery  []int            `json:"perQuery"`
	Emissions uint64           `json:"emissionHash"`
}

// fingerprint reduces a report to its golden identity.
func fingerprint(config string, rep *run.Report) goldenFingerprint {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	perQuery := make([]int, len(rep.PerQuery))
	for qi, ems := range rep.PerQuery {
		perQuery[qi] = len(ems)
		for _, e := range ems {
			word(uint64(qi))
			word(uint64(e.RID))
			word(uint64(e.TID))
			word(math.Float64bits(e.Time))
			for _, v := range e.Out {
				word(math.Float64bits(v))
			}
		}
	}
	return goldenFingerprint{
		Config:    config,
		EndTime:   rep.EndTime,
		Counters:  rep.Counters,
		PerQuery:  perQuery,
		Emissions: h.Sum64(),
	}
}

const goldenPath = "testdata/golden_reports.json"

// goldenInput is one data set the golden file pins: the shared determinism
// workload over one distribution's generated pair, with its exact totals.
type goldenInput struct {
	dist   string
	w      *caqe.Workload
	r, t   *caqe.Relation
	totals []int
}

// goldenInputs generates the golden data sets, one per distribution.
func goldenInputs(t *testing.T) []goldenInput {
	t.Helper()
	w := determinismWorkload()
	var ins []goldenInput
	for _, dist := range []struct {
		name string
		d    caqe.Distribution
	}{
		{"correlated", caqe.Correlated},
		{"independent", caqe.Independent},
		{"anticorrelated", caqe.AntiCorrelated},
	} {
		r, tt, err := caqe.GeneratePair(400, 3, dist.d, []float64{0.05, 0.05}, 7)
		if err != nil {
			t.Fatal(err)
		}
		totals, err := caqe.GroundTruth(w, r, tt)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, goldenInput{dist.name, w, r, tt, totals})
	}
	return ins
}

// goldenConfigs enumerates the executions the golden file pins: every
// strategy over every distribution on the shared determinism workload, plus
// a deterministic fake-clock wall-mode CAQE run.
func goldenConfigs(t *testing.T) map[string]func() (*run.Report, error) {
	t.Helper()
	configs := map[string]func() (*run.Report, error){}
	for _, in := range goldenInputs(t) {
		for _, name := range caqe.StrategyNames() {
			name := name
			configs[fmt.Sprintf("%s/%s", name, in.dist)] = func() (*run.Report, error) {
				return caqe.RunStrategy(name, in.w, in.r, in.t, caqe.WithTotals(in.totals))
			}
		}
		configs[fmt.Sprintf("CAQE-wall-fakens/%s", in.dist)] = func() (*run.Report, error) {
			var ns atomic.Int64
			return caqe.Run(in.w, in.r, in.t, caqe.Options{
				WallClock: true,
				WallNowNS: func() int64 { return ns.Add(2000) },
			}, caqe.WithTotals(in.totals))
		}
	}
	return configs
}

// TestDataOrderAloneIsSJFSL: the data-order switch alone is the S-JFSL
// engine — no dependency graph, no region discard, no feedback — so a CAQE
// run with only DataOrderScheduling set reproduces RunStrategy("S-JFSL")
// byte for byte on every golden data set.
func TestDataOrderAloneIsSJFSL(t *testing.T) {
	for _, in := range goldenInputs(t) {
		t.Run(in.dist, func(t *testing.T) {
			want, err := caqe.RunStrategy("S-JFSL", in.w, in.r, in.t, caqe.WithTotals(in.totals))
			if err != nil {
				t.Fatal(err)
			}
			got, err := caqe.Run(in.w, in.r, in.t, caqe.Options{DataOrderScheduling: true}, caqe.WithTotals(in.totals))
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalReports(t, want, got)
		})
	}
}

// TestGoldenReports pins the executor's observable behaviour to the
// committed pre-refactor fingerprints: the pipelined operator executor (or
// any later restructuring) must reproduce, for every strategy ×
// distribution and for the deterministic wall mode, exactly the end time,
// operation counters, per-query result counts and the bit-exact emission
// stream the monolithic region loop produced. Regenerate deliberately with
// CAQE_UPDATE_GOLDEN=1 go test -run TestGoldenReports .
func TestGoldenReports(t *testing.T) {
	configs := goldenConfigs(t)
	got := map[string]goldenFingerprint{}
	for name, runFn := range configs {
		rep, err := runFn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = fingerprint(name, rep)
	}

	if os.Getenv("CAQE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden fingerprints to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture (CAQE_UPDATE_GOLDEN=1 to generate): %v", err)
	}
	var want map[string]goldenFingerprint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d configs, run produced %d", len(want), len(got))
	}
	for name, wf := range want {
		gf, ok := got[name]
		if !ok {
			t.Errorf("%s: in golden file but not produced", name)
			continue
		}
		wj, _ := json.Marshal(wf)
		gj, _ := json.Marshal(gf)
		if string(wj) != string(gj) {
			t.Errorf("%s: fingerprint drifted from pre-refactor golden:\n  want %s\n  got  %s", name, wj, gj)
		}
	}
}
