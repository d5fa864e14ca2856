package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// digestOf runs one repetition and returns its simulated-statistics
// digest, failing the test on any correctness error.
func digestOf(t *testing.T, run func(uint64, *meter, *tracer) (*outcome, error), seed uint64, tr *tracer) string {
	t.Helper()
	out, err := run(seed, &meter{}, tr)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if out.invocations <= 0 {
		t.Fatalf("seed %d: no invocations", seed)
	}
	return out.digest()
}

// TestDigestRepeatable holds every workload to determinism: the same
// input gives the same simulated statistics, with and without tracing,
// at the default and at the held-out seed.
func TestDigestRepeatable(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{defaultSeed, heldOutSeed} {
				first := digestOf(t, w.run, seed, nil)
				if again := digestOf(t, w.run, seed, nil); again != first {
					t.Errorf("seed %d: digest %s, then %s", seed, first, again)
				}
				if traced := digestOf(t, w.run, seed, newTracer(false)); traced != first {
					t.Errorf("seed %d: traced digest %s, untraced %s", seed, traced, first)
				}
			}
		})
	}
}

// TestClusterDigestAcrossShards: the sharded engine must not change
// what is simulated.
func TestClusterDigestAcrossShards(t *testing.T) {
	one := func(seed uint64, m *meter, tr *tracer) (*outcome, error) { return runClusterShards(1, m, tr) }
	two := func(seed uint64, m *meter, tr *tracer) (*outcome, error) { return runClusterShards(2, m, tr) }
	if a, b := digestOf(t, one, defaultSeed, nil), digestOf(t, two, defaultSeed, nil); a != b {
		t.Fatalf("shards=1 digest %s, shards=2 digest %s", a, b)
	}
}

// TestCheckedCluster runs the cluster under the invariant checker on
// every node.
func TestCheckedCluster(t *testing.T) {
	want := digestOf(t, runCluster, defaultSeed, nil)
	if got := digestOf(t, runCluster, defaultSeed, newTracer(true)); got != want {
		t.Fatalf("checked digest %s, unchecked %s", got, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the benchmark in step: the
// declared metrics are exactly the ones each mode reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, perfbench %v", names, workloadNames())
	}

	e2e := map[string]string{
		"invocations_per_s": "1/s", "setup_s": "s", "alloc_mb_per_kinvo": "MB", "peak_rss_mb": "MB",
	}
	for _, m := range modelMetrics {
		e2e[m.name] = m.unit
	}
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, perfbench reports %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if u, ok := e2e[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s (%s): perfbench reports unit %q", m.Name, m.Unit, u)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), perfbench %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestParseTraces folds a hand-written pprof -traces listing.
func TestParseTraces(t *testing.T) {
	const listing = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      20ms   desiccant/internal/osmem.(*AddressSpace).Usage
             desiccant/internal/faas.(*Platform).cachedUSS
             desiccant/internal/faas.(*Platform).MemoryUsed (inline)
             main.runReplay
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   runtime.memmove
             desiccant/internal/obs/trace.(*Builder).HandleEvent
             main.runReplay
-----------+-------------------------------------------------------
      1.50s  runtime.futex
             runtime.findRunnable
-----------+-------------------------------------------------------
`
	fold, err := parseTraces([]byte(listing))
	if err != nil {
		t.Fatal(err)
	}
	if fold.samples != 1_540_000 {
		t.Fatalf("samples = %d µs, want 1540000", fold.samples)
	}
	want := map[string]int64{"osmem": 20_000, gcRow: 10_000, "obs": 10_000, otherRow: 1_500_000, occupancyRow: 20_000}
	for row, w := range want {
		if fold.weight[row] != w {
			t.Errorf("row %s = %d µs, want %d", row, fold.weight[row], w)
		}
	}
	if got := fold.attributedPct(); got < 2.59 || got > 2.60 {
		t.Errorf("attributed = %.3f%%, want 40/1540", got)
	}
}
