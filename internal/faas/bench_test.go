package faas

import (
	"testing"

	"desiccant/internal/obs"
	"desiccant/internal/obs/trace"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// BenchmarkInvocationPath measures one warm invocation cycle through
// the platform: bare, with an observability bus attached, and with the
// per-invocation span builder folding the stream on top of the bus.
// The bus=off case is the guard for the zero-cost-when-disabled
// contract: its allocs/op must not exceed the pre-observability
// baseline (the nil-bus checks compile to a pointer test; no Event is
// constructed, no invocation ID is boxed). The trace=on case records
// the full tracing-enabled overhead for the perf trajectory.
func BenchmarkInvocationPath(b *testing.B) {
	spec, err := workload.Lookup("clock")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, withBus, withTrace bool) {
		cfg := DefaultConfig()
		cfg.CacheBytes = 1 << 30
		cfg.KeepAlive = 0
		eng := sim.NewEngine()
		if withBus {
			bus := obs.NewBus(eng)
			bus.Subscribe(obs.NewCollector(obs.NewRegistry()))
			if withTrace {
				trace.NewBuilder().Attach(bus)
			}
			cfg.Events = bus
		}
		p := New(cfg, eng)
		// Warm the instance so the measured loop is thaw→run→freeze.
		at := sim.Time(0)
		p.Submit(spec, at)
		eng.Run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at = at.Add(2 * sim.Second)
			p.Submit(spec, at)
			eng.Run()
		}
	}
	b.Run("bus=off", func(b *testing.B) { run(b, false, false) })
	b.Run("bus=on", func(b *testing.B) { run(b, true, false) })
	b.Run("trace=on", func(b *testing.B) { run(b, true, true) })
}

// TestTracingWarmPathAllocFree pins the tracing additions to zero
// allocations when tracing is disabled. The per-invocation ID plumbing
// rides the warm path — takeCached pops the instance, SetCurrentInvo
// tags the shared invo cell the runtime observer reads, cache
// puts it back — and all three are //lint:allocfree. The static lint
// proves the bodies don't allocate; this test proves it dynamically on
// a steady-state pool, so a future tracing change that sneaks an
// allocation into the disabled-path (e.g. boxing the ID or logging per
// emit) fails here rather than only showing up as a bench regression.
func TestTracingWarmPathAllocFree(t *testing.T) {
	spec, err := workload.Lookup("clock")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 30
	cfg.KeepAlive = 0
	eng := sim.NewEngine()
	p := New(cfg, eng) // no bus: tracing disabled
	p.Submit(spec, 0)
	eng.Run()
	var key poolKey
	var found bool
	for k := range p.cached {
		key, found = k, true
		break
	}
	if !found {
		t.Fatal("no cached instance after warm invocation")
	}
	// One untimed round first so cache's pool slice reaches its
	// steady-state capacity (growth is amortized, not per-op).
	warm := p.takeCached(key)
	if warm == nil {
		t.Fatal("takeCached returned nil on a warm pool")
	}
	p.cache(warm)
	allocs := testing.AllocsPerRun(1000, func() {
		inst := p.takeCached(key)
		inst.SetCurrentInvo(42)
		if inst.LastInvo() != 42 {
			t.Fatal("invo cell lost the tag")
		}
		inst.SetCurrentInvo(0)
		p.cache(inst)
	})
	if allocs != 0 {
		t.Fatalf("warm path with tracing disabled allocates %.1f allocs/op, want 0", allocs)
	}
}
