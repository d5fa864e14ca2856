package faas

import (
	"testing"

	"desiccant/internal/container"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// rescanOccupancy is the occupancy oracle: Σ USS over the cached
// instances, each recomputed by a full smaps-style scan of its address
// space rather than read from the running counters.
func rescanOccupancy(p *Platform) int64 {
	var sum int64
	for _, inst := range p.CachedInstances() {
		sum += inst.AS.Usage().USS
	}
	return sum
}

// watchOccupancy checks every platform's ledger against the rescan
// before each event the engine fires (i.e. after the previous one's
// callback ran), and returns a function that runs the final check and
// reports how many checks were made.
func watchOccupancy(t *testing.T, eng *sim.Engine, ps ...*Platform) func() int {
	t.Helper()
	checks := 0
	check := func(label string) {
		for i, p := range ps {
			checks++
			if got, want := p.MemoryUsed(), rescanOccupancy(p); got != want {
				t.Fatalf("platform %d before %q at %v: MemoryUsed %d, rescan %d",
					i, label, eng.Now(), got, want)
			}
		}
	}
	eng.SetFireHook(func(label string, _ sim.Time, _ int) { check(label) })
	return func() int {
		check("end")
		return checks
	}
}

// submitRound submits each named function once, spaced apart, starting
// at t0, so every function needs its own instance.
func submitRound(t *testing.T, p *Platform, names []string, t0 sim.Time, gap sim.Duration) {
	t.Helper()
	for i, name := range names {
		if err := p.SubmitName(name, t0.Add(sim.Duration(i)*gap)); err != nil {
			t.Fatal(err)
		}
	}
}

var occupancyFunctions = []string{"sort", "fft", "matrix", "file-hash", "pi", "factor"}

// TestOccupancyLedgerMatchesRescan holds the running cache-occupancy
// ledger equal to the rescan after every fired event, in each way an
// instance enters or leaves the cache or has its USS moved by someone
// else: LRU eviction under pressure (survivors inherit the evicted
// instance's shared library pages), keep-alive expiry, thaw/freeze of
// shared-library co-tenants, and Lambda-profile private libraries.
func TestOccupancyLedgerMatchesRescan(t *testing.T) {
	cases := []struct {
		name  string
		setup func(*Config)
		check func(*testing.T, *Stats)
	}{
		{"pressure", func(c *Config) { c.CacheBytes = 96 * mb }, func(t *testing.T, st *Stats) {
			if st.Evictions == 0 {
				t.Fatal("no pressure evictions")
			}
		}},
		{"keepalive", func(c *Config) { c.KeepAlive = 4 * sim.Second }, func(t *testing.T, st *Stats) {
			if st.Evictions == 0 {
				t.Fatal("no keep-alive evictions")
			}
		}},
		{"lambda", func(c *Config) { c.Profile = Lambda; c.CacheBytes = 160 * mb }, func(t *testing.T, st *Stats) {
			if st.Evictions == 0 {
				t.Fatal("no pressure evictions")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.setup(&cfg)
			eng, p := newPlatform(t, cfg)
			done := watchOccupancy(t, eng, p)
			// Two rounds: the second thaws whatever the first left
			// cached while co-tenants of the same language freeze
			// and get evicted around it.
			submitRound(t, p, occupancyFunctions, 0, 3*sim.Second)
			submitRound(t, p, occupancyFunctions, sim.Time(10*sim.Second), sim.Second)
			eng.Run()
			// Every request fires at least submit, boot or thaw, and
			// exec events.
			if n, want := done(), 3*int(p.Stats().Requests); n < want {
				t.Fatalf("only %d ledger checks for %d requests", n, p.Stats().Requests)
			}
			tc.check(t, p.Stats())
		})
	}
}

// TestOccupancyLedgerAcrossMigration moves frozen instances between two
// platforms mid-run (DetachCached on the source, AdoptFrozen on the
// destination) and holds both ledgers equal to their rescans
// throughout.
func TestOccupancyLedgerAcrossMigration(t *testing.T) {
	eng := sim.NewEngine()
	src, dst := New(testConfig(), eng), New(testConfig(), eng)
	done := watchOccupancy(t, eng, src, dst)
	submitRound(t, src, occupancyFunctions, 0, sim.Second)
	submitRound(t, dst, occupancyFunctions[:2], 0, sim.Second)
	moved := 0
	eng.At(sim.Time(20*sim.Second), "migrate", func() {
		for _, inst := range src.CachedInstances()[:3] {
			spec, stage, ok := src.DetachCached(inst, obs.EvictMigrate)
			if !ok {
				t.Fatalf("DetachCached refused cached instance %d", inst.ID)
			}
			if _, err := dst.AdoptFrozen(spec, stage); err != nil {
				t.Fatal(err)
			}
			moved++
		}
	})
	// Warm requests on the destination thaw the adopted instances.
	submitRound(t, dst, occupancyFunctions, sim.Time(25*sim.Second), sim.Second)
	eng.Run()
	done()
	if moved != 3 || src.Stats().MigratedOut != 3 || dst.Stats().MigratedIn != 3 {
		t.Fatalf("moved %d, out %d, in %d", moved, src.Stats().MigratedOut, dst.Stats().MigratedIn)
	}
}

// BenchmarkCacheOccupancy measures the occupancy read Desiccant's
// activation check and every cache admission make, on a cache of 200
// frozen instances: one op is a MemoryUsedFraction read plus one
// thaw/freeze of a cached instance (its address space leaving and
// rejoining the ledger). The running ledger makes the op O(1) and
// allocation-free regardless of the cache's size.
func BenchmarkCacheOccupancy(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 40
	cfg.KeepAlive = 0
	eng := sim.NewEngine()
	p := New(cfg, eng)
	names := []string{"clock", "sort", "fft", "pi", "factor"}
	rng := sim.NewRNG(7)
	for id := 1; id <= 200; id++ {
		spec, err := workload.Lookup(names[id%len(names)])
		if err != nil {
			b.Fatal(err)
		}
		inst, err := container.New(p.Machine(), id, spec, 0, 0, container.Options{
			MemoryBudget:   cfg.InstanceBudget,
			ShareLibraries: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		inst.BeginRun(0)
		if _, _, _, err := inst.InvokeBody(rng); err != nil {
			b.Fatal(err)
		}
		inst.Freeze(0)
		p.AddCached(inst)
	}
	if n := len(p.CachedInstances()); n != 200 {
		b.Fatalf("cached %d instances, want 200", n)
	}
	key := poolKey{names[0], 0}
	var frac float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frac += p.MemoryUsedFraction()
		inst := p.takeCached(key)
		inst.BeginRun(0)
		inst.Freeze(0)
		p.cache(inst)
	}
	if frac <= 0 {
		b.Fatal("empty cache occupancy")
	}
}
