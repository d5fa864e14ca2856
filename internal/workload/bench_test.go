package workload

import (
	"testing"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
)

// BenchmarkRunBody measures one steady-state body execution of a
// HotSpot and a V8 function: the dead-run planner, the per-object
// window tail, and the collections the bodies trigger. A warm-up
// brings the window, the object pool and the collector work lists to
// their steady-state sizes first, so allocs/op reads the steady state,
// which must be zero. The V8 function is fft, whose semispaces keep
// their chunks; a function whose old space frees and re-carves chunks
// still allocates one chunk struct per re-carve.
func BenchmarkRunBody(b *testing.B) {
	for _, c := range []struct{ name, fn string }{
		{"hotspot", "file-hash"},
		{"v8", "fft"},
	} {
		b.Run(c.name, func(b *testing.B) {
			spec, err := Lookup(c.fn)
			if err != nil {
				b.Fatal(err)
			}
			m := osmem.NewMachine(osmem.DefaultFaultCosts())
			as := m.NewAddressSpace(c.fn)
			rt, err := runtime.New(RuntimeFor(spec.Language), runtime.Config{
				AddressSpace: as,
				MemoryBudget: 256 << 20,
				Cost:         mm.DefaultGCCostModel(),
			})
			if err != nil {
				b.Fatal(err)
			}
			st := NewState(spec, 0)
			rng := sim.NewRNG(1)
			body := func() {
				if _, err := st.RunBody(rt, rng); err != nil {
					b.Fatal(err)
				}
				rt.DrainGCCost()
				as.DrainFaultCost()
			}
			for i := 0; i < 200; i++ {
				body()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body()
			}
		})
	}
}
