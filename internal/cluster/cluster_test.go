package cluster

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
)

// quickOptions is the test fleet: small enough to run dozens of times,
// big enough that every policy spreads work across all nodes.
func quickOptions(policy string) Options {
	o := DefaultOptions()
	o.Nodes = 4
	o.Window = 10 * sim.Second
	o.TraceFunctions = 120
	o.Policy = policy
	o.Migration = Migration{}
	o.ZipfSkew = 0
	return o
}

func summary(t testing.TB, o Options) string {
	t.Helper()
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.WriteSummary(&buf)
	return buf.String()
}

// TestShardInvariance is the subsystem's core determinism property:
// for every placement policy, the full summary must be byte-identical
// at shard counts 1, 4 and 8 (8 exceeds the domain count and clamps).
func TestShardInvariance(t *testing.T) {
	for _, policy := range PolicyNames {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			o := quickOptions(policy)
			o.Shards = 1
			want := summary(t, o)
			for _, shards := range []int{4, 8} {
				o.Shards = shards
				if got := summary(t, o); got != want {
					t.Fatalf("policy %s shards=%d diverged from serial:\n%s\nserial:\n%s",
						policy, shards, got, want)
				}
			}
		})
	}
}

// TestShardInvarianceUnderProtocol repeats the byte-identity check
// with every cluster protocol armed at once — migration orders flying,
// a node decommissioned mid-replay — where a barrier-ordering bug
// would actually bite.
func TestShardInvarianceUnderProtocol(t *testing.T) {
	o := quickOptions(PolicyGarbageAware)
	o.CacheBytes = 48 << 20
	o.Migration = DefaultMigration()
	o.Migration.HighFrac = 0.5
	o.Migration.LowFrac = 0.45
	o.Kills = []Kill{{Node: 2, At: sim.Time(6 * sim.Second)}}
	o.Shards = 1
	want := summary(t, o)
	for _, shards := range []int{4, 8} {
		o.Shards = shards
		if got := summary(t, o); got != want {
			t.Fatalf("shards=%d diverged from serial:\n%s\nserial:\n%s", shards, got, want)
		}
	}
}

// TestPoliciesSpreadWork pins basic routing health per policy: work
// lands on every node, completions flow, acks cross back.
func TestPoliciesSpreadWork(t *testing.T) {
	for _, policy := range PolicyNames {
		res, err := Run(quickOptions(policy))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckConsistency(); err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
		if res.Acks == 0 {
			t.Fatalf("policy %s: no completions acked", policy)
		}
		for _, row := range res.Rows {
			if row.Completions == 0 {
				t.Fatalf("policy %s: node %d completed nothing", policy, row.Node)
			}
		}
	}
}

// TestViewDrivenPoliciesSeeReports pins that the pressure protocol
// actually feeds the view-driven policies: reports arrive, and the
// garbage-aware packer concentrates functions instead of spreading
// them round-robin-thin.
func TestViewDrivenPoliciesSeeReports(t *testing.T) {
	for _, policy := range []string{PolicyLeastLoaded, PolicyGarbageAware} {
		res, err := Run(quickOptions(policy))
		if err != nil {
			t.Fatal(err)
		}
		if res.Reports == 0 {
			t.Fatalf("policy %s: no pressure reports reached the router", policy)
		}
	}
}

// TestMigrationMovesInstances arms the relief valve over a small cache
// and checks hand-offs actually happen and conserve instances: every
// detach matched by an adoption, affinity re-homed (moves observed),
// and the whole thing still byte-identical across shard counts
// (covered above); here we pin the counters.
func TestMigrationMovesInstances(t *testing.T) {
	o := quickOptions(PolicyGarbageAware)
	o.CacheBytes = 48 << 20
	o.Migration = DefaultMigration()
	o.Migration.HighFrac = 0.5
	o.Migration.LowFrac = 0.45
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if res.MigOrders == 0 {
		t.Fatal("no migration orders issued — relief valve never fired")
	}
	if res.MigratedOut == 0 {
		t.Fatal("orders issued but no instance detached")
	}
	if res.MigratedOut != res.MigratedIn {
		t.Fatalf("instance lost in transit: %d out, %d in", res.MigratedOut, res.MigratedIn)
	}
	if res.Moves == 0 {
		t.Fatal("no affinity re-home notices reached the router")
	}
}

// TestKillDrainsDeterministically decommissions a node mid-replay: the
// dead node's cache must drain to the survivors (or be evicted in
// place), the router must stop placing there, the run must stay
// consistent, and the whole scenario must replay byte-identically.
func TestKillDrainsDeterministically(t *testing.T) {
	o := quickOptions(PolicyGarbageAware)
	o.Kills = []Kill{{Node: 1, At: sim.Time(5 * sim.Second)}}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if res.Killed != 1 || res.Deaths != 1 {
		t.Fatalf("killed=%d deaths=%d, want 1/1", res.Killed, res.Deaths)
	}
	dead := res.Rows[1]
	if !dead.Dead {
		t.Fatal("row 1 not marked dead")
	}
	if dead.MigratedOut == 0 && res.DrainEvicted == 0 {
		t.Fatal("decommission drained nothing: no migrations, no evictions")
	}
	first := summary(t, o)
	if second := summary(t, o); second != first {
		t.Fatalf("kill scenario not reproducible:\n%s\nvs:\n%s", first, second)
	}
	// The summary marks exactly one node dead.
	if got := strings.Count(first, ",true\n"); got != 1 {
		t.Fatalf("summary marks %d nodes dead, want 1:\n%s", got, first)
	}
}

// TestKillRejectsBadSchedules pins option validation.
func TestKillRejectsBadSchedules(t *testing.T) {
	o := quickOptions(PolicyPinned)
	o.Kills = []Kill{{Node: 9, At: sim.Time(5 * sim.Second)}}
	if _, err := Run(o); err == nil {
		t.Fatal("out-of-range kill accepted")
	}
	o.Kills = []Kill{{Node: 0, At: sim.Time(11 * sim.Second)}}
	if _, err := Run(o); err == nil {
		t.Fatal("kill outside the window accepted")
	}
	o.Kills = []Kill{{Node: 0, At: sim.Time(2 * sim.Second)}, {Node: 1, At: sim.Time(3 * sim.Second)},
		{Node: 2, At: sim.Time(4 * sim.Second)}, {Node: 3, At: sim.Time(5 * sim.Second)}}
	if _, err := Run(o); err == nil {
		t.Fatal("killing every node accepted")
	}
}

// TestUnknownPolicyAndMode pins construction errors.
func TestUnknownPolicyAndMode(t *testing.T) {
	o := quickOptions(PolicyPinned)
	o.Policy = "teleport"
	if _, err := Run(o); err == nil {
		t.Fatal("unknown policy accepted")
	}
	o = quickOptions(PolicyPinned)
	o.Mode = "hibernate"
	if _, err := Run(o); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestRejectsBadTraceOptions: each of these used to panic deep inside
// faas or trace; Run must return an error instead.
func TestRejectsBadTraceOptions(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"zero cache", func(o *Options) { o.CacheBytes = 0 }},
		{"zero trace functions", func(o *Options) { o.TraceFunctions = 0 }},
		{"fewer trace functions than workloads", func(o *Options) { o.TraceFunctions = 5 }},
		{"negative scale", func(o *Options) { o.Scale = -1 }},
		{"zero scale", func(o *Options) { o.Scale = 0 }},
		{"NaN scale", func(o *Options) { o.Scale = math.NaN() }},
		{"infinite scale", func(o *Options) { o.Scale = math.Inf(1) }},
		{"zero base rate", func(o *Options) { o.BaseRate = 0 }},
		{"NaN base rate", func(o *Options) { o.BaseRate = math.NaN() }},
	} {
		o := quickOptions(PolicyPinned)
		c.mutate(&o)
		if _, err := Run(o); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// BenchmarkClusterReplay is the CI-tracked cost of the full protocol:
// garbage-aware placement, pressure reports and migration over a
// 16-node fleet.
func BenchmarkClusterReplay(b *testing.B) {
	o := DefaultOptions()
	o.Window = 30 * sim.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(o)
		if err != nil {
			b.Fatal(err)
		}
		if res.Acks == 0 {
			b.Fatal("no work done")
		}
	}
}

// TestInvocationIDsNodeBlocks pins the fleet-wide invocation identity:
// node d (0-based) numbers its requests (d+1)·10⁹ + 1, +2, ... in
// arrival order, under the dynamic protocol as well as the static one.
func TestInvocationIDsNodeBlocks(t *testing.T) {
	for _, policy := range []string{PolicyPinned, PolicyGarbageAware} {
		o := quickOptions(policy)
		var next []int64
		o.ObserveNode = func(node int, _ *sim.Engine, bus *obs.Bus, _ *faas.Platform, _ *core.Manager) {
			next = append(next, int64(node+1)*invoBlock+1)
			bus.Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
				if ev.Kind != obs.EvInvokeSubmit {
					return
				}
				if ev.Invo != next[node] {
					t.Errorf("%s: node %d submitted invo %d, want %d", policy, node, ev.Invo, next[node])
				}
				next[node]++
			}))
		}
		if _, err := Run(o); err != nil {
			t.Fatal(err)
		}
		for node, n := range next {
			if n == int64(node+1)*invoBlock+1 {
				t.Fatalf("%s: node %d submitted nothing", policy, node)
			}
		}
	}
}
