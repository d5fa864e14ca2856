package workload

import (
	"fmt"
	"reflect"
	"testing"

	"desiccant/internal/g1gc"
	"desiccant/internal/hotspot"
	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/pyarena"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/v8heap"
)

// The dead-run differential oracle. State.allocTemps coalesces the
// temporaries a stretch kills into one AllocateDead run; with the
// heap's Headroom forced to 0 it falls back on the per-object loop,
// which stays the reference. Both paths run the same operation
// sequence on twin machines, and after every step the test compares
// everything a collection, the OS or an observer can see: the space
// layout, every page of every region, the osmem counters, the
// GCObserver event stream, Stats, LiveBytes and DrainGCCost.

var deadRunHeaps = []string{hotspot.RuntimeName, v8heap.RuntimeName, g1gc.RuntimeName, pyarena.RuntimeName}

// perObject hides the heap's headroom, so State never coalesces.
type perObject struct{ runtime.Runtime }

func (perObject) Headroom(int64) int64 { return 0 }

// deadRunCounter counts the dead runs the heap took.
type deadRunCounter struct {
	runtime.Runtime
	runs *int64
}

func (c deadRunCounter) AllocateDead(size, n int64) {
	if n > 0 {
		*c.runs++
	}
	c.Runtime.AllocateDead(size, n)
}

// gcEvent is one GCObserver notification.
type gcEvent struct {
	kind string
	full bool
	a, b int64
}

type eventLog struct{ events []gcEvent }

func (l *eventLog) GCPause(full bool, pause sim.Duration, collected int64) {
	l.events = append(l.events, gcEvent{"pause", full, int64(pause), collected})
}
func (l *eventLog) HeapResized(before, after int64) {
	l.events = append(l.events, gcEvent{"resize", false, before, after})
}
func (l *eventLog) PagesReleased(bytes int64) {
	l.events = append(l.events, gcEvent{"release", false, bytes, 0})
}

// deadRunSide is one twin: a machine with one instance per chain stage.
type deadRunSide struct {
	m      *osmem.Machine
	spaces []*osmem.AddressSpace
	heaps  []runtime.Runtime // the heaps themselves
	rts    []runtime.Runtime // what State drives
	states []*State
	log    *eventLog
	rng    *sim.RNG
}

func newDeadRunSide(t testing.TB, spec *Spec, heap string, coalesce bool, runs *int64) *deadRunSide {
	s := &deadRunSide{m: osmem.NewMachine(osmem.DefaultFaultCosts()), log: &eventLog{}, rng: sim.NewRNG(11)}
	for i := 0; i < spec.ChainLength; i++ {
		as := s.m.NewAddressSpace(fmt.Sprintf("%s-%d", spec.Name, i))
		rt, err := runtime.New(heap, runtime.Config{
			AddressSpace: as,
			MemoryBudget: 256 << 20,
			Cost:         mm.DefaultGCCostModel(),
			Observer:     s.log,
		})
		if err != nil {
			t.Fatal(err)
		}
		driven := runtime.Runtime(perObject{rt})
		if coalesce {
			driven = deadRunCounter{rt, runs}
		}
		s.spaces = append(s.spaces, as)
		s.heaps = append(s.heaps, rt)
		s.rts = append(s.rts, driven)
		s.states = append(s.states, NewState(spec, i))
	}
	return s
}

// applyDeadRunOp runs one step of a differential sequence, decoded
// from a byte: the low three bits pick the operation, the rest its
// argument. It renders the step's results for comparison.
func applyDeadRunOp(s *deadRunSide, spec *Spec, op byte) string {
	stage := int(op>>3) % spec.ChainLength
	rt, st := s.rts[stage], s.states[stage]
	switch op & 7 {
	case 0, 1, 2:
		rep, err := st.RunBody(rt, s.rng)
		return fmt.Sprintf("body stage %d: %+v err=%v", stage, rep, err)
	case 3:
		for _, st := range s.states {
			st.ReleaseIntermediates()
		}
		return "release intermediates"
	case 4:
		aggressive := op&0x80 != 0
		rt.CollectFull(aggressive)
		return fmt.Sprintf("full gc stage %d aggressive=%v", stage, aggressive)
	case 5:
		aggressive := op&0x80 != 0
		rep := rt.Reclaim(aggressive)
		return fmt.Sprintf("reclaim stage %d aggressive=%v: %+v", stage, aggressive, rep)
	case 6:
		// Freeze under memory pressure: swap out part of the frozen
		// instance's heap, as the §5.6 baseline does.
		va, length := rt.HeapRange()
		var moved int64
		for _, r := range s.spaces[stage].Regions() {
			if r.VA >= va && r.VA < va+length {
				moved += r.SwapOutUpTo(0, r.Pages(), int64(op>>4)*256)
			}
		}
		return fmt.Sprintf("freeze stage %d: %d pages swapped", stage, moved)
	default:
		// An odd-sized dead temporary outside any body shifts where
		// the next young collection falls; allocate until one does.
		size := spec.ObjectSize/2 + int64(op>>3)*512
		before := rt.Stats()
		n := 0
		for ; n < 4096 && rt.Stats() == before; n++ {
			o, err := rt.Allocate(size, runtime.AllocOptions{})
			if err != nil {
				return fmt.Sprintf("young gc stage %d: %v", stage, err)
			}
			o.Dead = true
		}
		return fmt.Sprintf("young gc stage %d after %d allocations", stage, n)
	}
}

// deadRunObservables renders everything the two paths must agree on.
func deadRunObservables(s *deadRunSide) []any {
	out := []any{s.m.PageCounters(), s.m.PhysPages(), s.m.PeakPhysPages(), s.m.SwapPages(), len(s.log.events)}
	for i, rt := range s.heaps {
		as := s.spaces[i]
		out = append(out, rt.Stats(), rt.LiveBytes(), rt.HeapCommitted(), rt.DrainGCCost(),
			as.USS(), as.MinorFaults(), as.MajorFaults(), as.DrainFaultCost(),
			s.states[i].PendingIntermediateBytes(), s.states[i].LiveStaticBytes())
		if l, ok := rt.(runtime.SpaceLayout); ok {
			out = append(out, l.SpaceLayout())
		}
		for _, r := range as.Regions() {
			out = append(out, r.Name, r.ResidentPages(), r.SwappedPages(), r.ClearEpoch())
			pages := make([]byte, r.Pages())
			for p := range pages {
				pages[p] = byte(r.ResidentBytesOfPage(int64(p)) >> osmem.PageShift)
			}
			out = append(out, pages)
		}
	}
	return out
}

// runDeadRunPair drives both paths through ops and fails on the first
// step after which they differ. It returns the dead runs taken.
func runDeadRunPair(t testing.TB, spec *Spec, heap string, ops []byte) int64 {
	t.Helper()
	var runs int64
	ref := newDeadRunSide(t, spec, heap, false, nil)
	got := newDeadRunSide(t, spec, heap, true, &runs)
	where := spec.Name + "/" + heap
	for i, op := range ops {
		want := applyDeadRunOp(ref, spec, op)
		have := applyDeadRunOp(got, spec, op)
		if want != have {
			t.Fatalf("%s step %d: per-object %q, coalesced %q", where, i, want, have)
		}
		if !reflect.DeepEqual(ref.log.events, got.log.events) {
			t.Fatalf("%s step %d (%s): GC event streams differ:\nper-object %v\ncoalesced  %v",
				where, i, want, ref.log.events, got.log.events)
		}
		a, b := deadRunObservables(ref), deadRunObservables(got)
		for j := range a {
			if !reflect.DeepEqual(a[j], b[j]) {
				t.Fatalf("%s step %d (%s): observable %d differs:\nper-object %v\ncoalesced  %v",
					where, i, want, j, a[j], b[j])
			}
		}
	}
	return runs
}

// deadRunCases lists every spec on every heap that can hold it:
// CPython arenas cannot take an object wider than an arena.
func deadRunCases() (specs []*Spec, heaps []string) {
	for _, spec := range append(All(), Extras()...) {
		for _, heap := range deadRunHeaps {
			if heap == pyarena.RuntimeName && max(spec.ObjectSize, spec.WeakBytes) > pyarena.ArenaSize {
				continue
			}
			specs = append(specs, spec)
			heaps = append(heaps, heap)
		}
	}
	return specs, heaps
}

// TestDeadRunMatchesPerObject is the table form of the oracle: every
// Table 1 and Python spec on all four heaps, with a seeded mix of
// bodies, young and full collections, reclamations and freezes. The
// generational heaps must actually take dead runs, or the comparison
// would check nothing.
func TestDeadRunMatchesPerObject(t *testing.T) {
	specs, heaps := deadRunCases()
	coalesced := map[string]int64{}
	for i, spec := range specs {
		rng := sim.NewRNG(uint64(i + 1))
		ops := make([]byte, 16)
		for j := range ops {
			ops[j] = byte(rng.Intn(256))
		}
		ops[0] &^= 7 // start with a body: first-invocation init
		coalesced[heaps[i]] += runDeadRunPair(t, spec, heaps[i], ops)
	}
	for _, heap := range []string{hotspot.RuntimeName, v8heap.RuntimeName} {
		if coalesced[heap] == 0 {
			t.Errorf("%s never took a dead run; the oracle compared nothing", heap)
		}
	}
}

// FuzzDeadRun is the coverage-guided form: the input picks the spec,
// the heap and the operation sequence. Its seed corpus is under
// testdata/fuzz/FuzzDeadRun.
func FuzzDeadRun(f *testing.F) {
	specs, heaps := deadRunCases()
	f.Fuzz(func(t *testing.T, pick uint8, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		i := int(pick) % len(specs)
		runDeadRunPair(t, specs[i], heaps[i], ops)
	})
}
