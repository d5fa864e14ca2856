package v8heap

import (
	"testing"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
)

// BenchmarkScavengeCopy is BenchmarkYoungGCCopy's twin for the V8
// model: a sliding window of small objects, half of which survive into
// the next batch, so every scavenge copies a realistic survivor
// fraction between the semispaces and promotes second-time survivors.
// After a warm-up pass the object pool, chunk lists and scavenge work
// list are at their steady-state sizes, so allocs/op must read zero.
func BenchmarkScavengeCopy(b *testing.B) {
	m := osmem.NewMachine(osmem.DefaultFaultCosts())
	as := m.NewAddressSpace("node")
	h := New(DefaultConfig(256*mb), as, mm.DefaultGCCostModel())

	const objSize = 8 * kb
	ring := make([]*mm.Object, 256)
	idx := 0
	batch := func() {
		for j := 0; j < 2048; j++ {
			o, err := h.Allocate(objSize, runtime.AllocOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if j%2 == 0 {
				if old := ring[idx]; old != nil {
					old.Dead = true
				}
				ring[idx] = o
				idx = (idx + 1) % len(ring)
			} else {
				o.Dead = true
			}
		}
	}
	for i := 0; i < 64; i++ {
		batch()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
	b.StopTimer()
	if h.Stats().YoungGCs == 0 {
		b.Fatal("no scavenge ran; the benchmark measured nothing")
	}
}
