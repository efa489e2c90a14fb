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

// goldenConfigs enumerates the executions the golden file pins: every
// strategy over every distribution on the shared determinism workload, plus
// a deterministic fake-clock wall-mode CAQE run and a data-order ablation.
func goldenConfigs(t *testing.T) map[string]func() (*run.Report, error) {
	t.Helper()
	w := determinismWorkload()
	configs := map[string]func() (*run.Report, error){}
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
		for _, name := range caqe.StrategyNames() {
			name := name
			configs[fmt.Sprintf("%s/%s", name, dist.name)] = func() (*run.Report, error) {
				return caqe.RunStrategy(name, w, r, tt, caqe.WithTotals(totals))
			}
		}
		configs[fmt.Sprintf("CAQE-wall-fakens/%s", dist.name)] = func() (*run.Report, error) {
			var ns atomic.Int64
			return caqe.Run(w, r, tt, caqe.Options{
				WallClock: true,
				WallNowNS: func() int64 { return ns.Add(2000) },
			}, caqe.WithTotals(totals))
		}
	}
	return configs
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
