package main

import (
	"fmt"
	"testing"
)

// TestQuickWorkloads drives every workload end to end at toy sizes, untraced
// and traced: the daemon is built, spawned, loaded and drained, every output
// check runs, and every metric the manifest names is reported. The long,
// steady runs are the benchmark's business, not the test suite's.
func TestQuickWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns caqe-serve")
	}
	buildDir := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", wl.name, traced), func(t *testing.T) {
				cfg := config{workload: wl.name, seed: 7, seconds: referenceSeconds, traced: traced, quick: true, buildDir: buildDir}
				o, err := wl.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if o.attempted < 1 || o.failed != 0 {
					t.Fatalf("%d of %d operations failed: %v", o.failed, o.attempted, o.failures)
				}
				if traced {
					// Layers the workload never enters report 0; the ones
					// every workload enters must be there.
					for _, name := range []string{"core.decisions", "core.sched_ms", "skycube.cmps", "skycube.ns_per_cmp",
						"join.probes", "join.ns_per_probe", "partition.build_ms", "region.regions", "preference.dominates_ns"} {
						if o.values[name].value <= 0 {
							t.Errorf("%s = %v, want a positive number", name, o.values[name].value)
						}
					}
					return
				}
				for _, d := range endToEnd {
					if s, ok := o.values[d.name]; !ok || !(s.value > 0) {
						t.Errorf("%s = %v, want a positive number", d.name, s.value)
					}
				}
			})
		}
	}
}

// TestSameSeedSameInputs checks that a seed fixes the generated requests.
func TestSameSeedSameInputs(t *testing.T) {
	spec := serveSpecs["serve-mutate"].sized(config{seconds: referenceSeconds, quick: true})
	draw := func(seed int64) string {
		qs := drawQueries(seed, 0, spec, 20)
		r, tt, err := spec.relations(seed)
		if err != nil {
			t.Fatal(err)
		}
		plan := newMutationPlan(seed, spec, r, tt)
		var ms []mutation
		for i := 0; i < 20; i++ {
			ms = append(ms, plan.next())
		}
		return fmt.Sprint(qs, ms)
	}
	if draw(5) != draw(5) {
		t.Error("the same seed drew different requests")
	}
	if draw(5) == draw(6) {
		t.Error("different seeds drew the same requests")
	}
}
