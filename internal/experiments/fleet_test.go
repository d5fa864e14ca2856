package experiments

import (
	"bytes"
	"testing"

	"desiccant/internal/cluster"
	"desiccant/internal/sim"
)

func quickFleetOptions() cluster.Options {
	o := fleetOptions()
	o.Nodes = 4
	o.Window = 10 * sim.Second
	o.TraceFunctions = 120
	return o
}

// fleetCSV replays o, checks the cross-shard bookkeeping and renders
// the ext-fleet CSV.
func fleetCSV(t testing.TB, o cluster.Options) string {
	t.Helper()
	res, err := cluster.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeFleetCSV(&buf, res)
	return buf.String()
}

// TestFleetShardInvariance is the experiment-level determinism check:
// the fleet replay's full CSV must be byte-identical at every shard
// count, including counts above the domain count (clamped).
func TestFleetShardInvariance(t *testing.T) {
	o := quickFleetOptions()
	o.Shards = 1
	want := fleetCSV(t, o)
	for _, shards := range []int{2, 4, 8} {
		o.Shards = shards
		if got := fleetCSV(t, o); got != want {
			t.Fatalf("shards=%d output diverged from serial:\n%s\nserial:\n%s", shards, got, want)
		}
	}
}

// TestFleetRouting pins the router's bookkeeping: work actually lands
// on every machine, completions flow, and acks cross back.
func TestFleetRouting(t *testing.T) {
	res, err := cluster.Run(quickFleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if res.Acks == 0 {
		t.Fatal("no completions acked to the router")
	}
	for _, row := range res.Rows {
		if row.Functions == 0 {
			t.Fatalf("machine %d received no functions (placement broken)", row.Node)
		}
		if row.Completions == 0 {
			t.Fatalf("machine %d completed nothing", row.Node)
		}
	}
	if res.Fleet.Quantile(0.99) <= 0 {
		t.Fatalf("fleet p99 = %v, want positive", res.Fleet.Quantile(0.99))
	}
}

// TestFleetSeedSweep runs a small fleet across many seeds comparing
// serial against sharded output byte for byte — the experiment-level
// cousin of the sim package's shard property tests.
func TestFleetSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	o := quickFleetOptions()
	o.Nodes = 3
	o.Window = 4 * sim.Second
	o.TraceFunctions = 60
	for seed := uint64(1); seed <= 50; seed++ {
		o.TraceSeed = seed
		o.Shards = 1
		want := fleetCSV(t, o)
		o.Shards = 3
		if got := fleetCSV(t, o); got != want {
			t.Fatalf("seed %d: sharded output diverged from serial:\n%s\nserial:\n%s", seed, got, want)
		}
	}
}

// The bench workload is denser than the default experiment: the
// speedup question is about saturated machines, where per-window
// simulation work dominates the barrier handshake.
func benchmarkFleet(b *testing.B, shards int) {
	o := fleetOptions()
	o.Shards = shards
	o.Window = 30 * sim.Second
	o.Scale = 200
	o.RouteLatency = 5 * sim.Millisecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Run(o)
		if err != nil {
			b.Fatal(err)
		}
		if res.Acks == 0 {
			b.Fatal("no work done")
		}
	}
}

// The serial/sharded pair quantifies the parallel engine's speedup on
// a multi-machine workload (compare ns/op).
func BenchmarkFleetReplayShards1(b *testing.B) { benchmarkFleet(b, 1) }
func BenchmarkFleetReplayShards8(b *testing.B) { benchmarkFleet(b, 8) }
