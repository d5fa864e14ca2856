package workload

import (
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

// objectAudit is a census of the *mm.Object pointers one heap holds,
// taken by walking the heap's value graph. Every object reachable
// through the heap's spaces, chunks, regions, arenas and large-object
// entries counts as held; the objects on its ObjectPool's free list
// are counted apart. Slices are walked up to their length only, so
// stale pointers in the spare capacity of reused work lists do not
// count — exactly the references a collector can still act on.
type objectAudit struct {
	held, free map[uintptr]int
	objs       map[uintptr]*mm.Object
	seen       map[uintptr]bool
}

var (
	objectPtrType = reflect.TypeOf((*mm.Object)(nil))
	poolType      = reflect.TypeOf(mm.ObjectPool{})
	osmemPkg      = reflect.TypeOf(osmem.Region{}).PkgPath()
)

func auditHeap(rt runtime.Runtime) *objectAudit {
	a := &objectAudit{held: map[uintptr]int{}, free: map[uintptr]int{}, objs: map[uintptr]*mm.Object{}, seen: map[uintptr]bool{}}
	a.walk(reflect.ValueOf(rt), a.held)
	return a
}

func (a *objectAudit) walk(v reflect.Value, into map[uintptr]int) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if v.Type() == objectPtrType {
			into[v.Pointer()]++
			a.objs[v.Pointer()] = (*mm.Object)(v.UnsafePointer())
			return
		}
		if a.seen[v.Pointer()] {
			return
		}
		a.seen[v.Pointer()] = true
		a.walk(v.Elem(), into)
	case reflect.Interface:
		if !v.IsNil() {
			a.walk(v.Elem(), into)
		}
	case reflect.Struct:
		switch {
		case v.Type() == poolType:
			a.walk(v.FieldByName("free"), a.free)
		case v.Type().PkgPath() != osmemPkg: // page state holds no objects
			for i := 0; i < v.NumField(); i++ {
				a.walk(v.Field(i), into)
			}
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
			for i := 0; i < v.Len(); i++ {
				a.walk(v.Index(i), into)
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			a.walk(it.Value(), into)
		}
	}
}

func addr(o *mm.Object) uintptr { return reflect.ValueOf(o).Pointer() }

// checkNoAliasing asserts that no object on the heap's free list is
// still in use: not held by any heap list, not reachable from the
// state, and not listed twice.
func checkNoAliasing(t *testing.T, where string, rt runtime.Runtime, st *State) {
	t.Helper()
	a := auditHeap(rt)
	for p, n := range a.free {
		if n != 1 {
			t.Fatalf("%s: object %#x on the free list %d times", where, p, n)
		}
		if a.held[p] != 0 {
			t.Fatalf("%s: free object %#x still held by the heap", where, p)
		}
	}
	for p, n := range a.held {
		if n != 1 {
			t.Fatalf("%s: object %#x held %d times by the heap", where, p, n)
		}
	}
	refs := append([]*mm.Object(nil), st.static...)
	refs = append(refs, st.window[st.windowHead:]...)
	refs = append(refs, st.intermediates...)
	if st.weak != nil {
		refs = append(refs, st.weak)
	}
	seen := map[uintptr]bool{}
	for _, o := range refs {
		p := addr(o)
		switch {
		case seen[p]:
			t.Fatalf("%s stage %d: state reaches object %#x twice", where, st.Stage, p)
		case a.free[p] != 0:
			t.Fatalf("%s stage %d: state reaches free object %#x (%v)", where, st.Stage, p, o)
		case o.Weak && o.Dead:
			// Aggressively collected weak cache: off the heap but
			// never recycled, so the state can still read Dead.
		case o.Dead || a.held[p] != 1:
			t.Fatalf("%s stage %d: state reaches %v, held %d times", where, st.Stage, o, a.held[p])
		}
		seen[p] = true
	}
}

// fillerCensus wraps a heap so the audit can tell AllocateDead's
// fillers apart: the objects a run adds are found by diffing the heap's
// census around the call (no collection runs inside one), and an
// object Allocate hands out again stops being a filler.
type fillerCensus struct {
	runtime.Runtime
	fillers map[uintptr]*mm.Object
	seen    int
}

func (f *fillerCensus) AllocateDead(size, n int64) {
	before := auditHeap(f.Runtime)
	f.Runtime.AllocateDead(size, n)
	after := auditHeap(f.Runtime)
	for p := range after.held {
		if before.held[p] == 0 {
			f.fillers[p] = after.objs[p]
			f.seen++
		}
	}
}

func (f *fillerCensus) Allocate(size int64, opts runtime.AllocOptions) (*mm.Object, error) {
	o, err := f.Runtime.Allocate(size, opts)
	if o != nil {
		delete(f.fillers, addr(o))
	}
	return o, err
}

// checkFillers asserts the filler laws: no filler ever enters the
// state's window, a held filler is dead, a filler the heap no longer
// holds sits on the free list, and after a full collection no filler
// is held at all.
func checkFillers(t *testing.T, where string, f *fillerCensus, st *State, collected bool) {
	t.Helper()
	for _, o := range st.window[st.windowHead:] {
		if f.fillers[addr(o)] != nil {
			t.Fatalf("%s stage %d: filler %v in the window", where, st.Stage, o)
		}
	}
	a := auditHeap(f.Runtime)
	for p, o := range f.fillers {
		switch {
		case a.held[p] == 1 && collected:
			t.Fatalf("%s stage %d: filler %v survived a full collection", where, st.Stage, o)
		case a.held[p] == 1 && !o.Dead:
			t.Fatalf("%s stage %d: held filler %v is live", where, st.Stage, o)
		case a.held[p] == 0 && a.free[p] != 1:
			t.Fatalf("%s stage %d: filler %#x dropped without being recycled", where, st.Stage, p)
		}
	}
}

// TestRecycleNeverAliasesLiveObject drives every Table 1 function, and
// the Python extras, through all four heap models — plain
// collections, forced full collections, aggressive Desiccant
// reclamations and freezes that swap the heap out, interleaved — with
// dead-run coalescing on, and after every body execution and every
// collection audits the heap's free list against everything still in
// use, and its dead-run fillers against the filler laws. CPython
// arenas cannot hold an object wider than an arena, so functions that
// allocate one skip pyarena.
func TestRecycleNeverAliasesLiveObject(t *testing.T) {
	runtimes := []string{hotspot.RuntimeName, v8heap.RuntimeName, g1gc.RuntimeName, pyarena.RuntimeName}
	const invocations = 6
	fillers := map[string]int{}
	for _, spec := range append(All(), Extras()...) {
		for _, name := range runtimes {
			where := spec.Name + "/" + name
			if name == pyarena.RuntimeName && max(spec.ObjectSize, spec.WeakBytes) > pyarena.ArenaSize {
				continue
			}
			m := osmem.NewMachine(osmem.DefaultFaultCosts())
			spaces := make([]*osmem.AddressSpace, spec.ChainLength)
			rts := make([]*fillerCensus, spec.ChainLength)
			states := make([]*State, spec.ChainLength)
			for i := range rts {
				spaces[i] = m.NewAddressSpace(where)
				rt, err := runtime.New(name, runtime.Config{
					AddressSpace: spaces[i],
					MemoryBudget: 512 << 20,
					Cost:         mm.DefaultGCCostModel(),
				})
				if err != nil {
					t.Fatal(err)
				}
				rts[i] = &fillerCensus{Runtime: rt, fillers: map[uintptr]*mm.Object{}}
				states[i] = NewState(spec, i)
			}
			rng := sim.NewRNG(7)
			recycled := false
			for inv := 0; inv < invocations; inv++ {
				for i, st := range states {
					if _, err := st.RunBody(rts[i], rng); err != nil {
						t.Fatalf("%s: invocation %d stage %d: %v", where, inv, i, err)
					}
					checkNoAliasing(t, where, rts[i].Runtime, st)
					checkFillers(t, where, rts[i], st, false)
				}
				for _, st := range states {
					st.ReleaseIntermediates()
				}
				for i, rt := range rts {
					switch inv % 3 {
					case 0:
						// Freeze under memory pressure: swap the heap out.
						va, length := rt.HeapRange()
						for _, r := range spaces[i].Regions() {
							if r.VA >= va && r.VA < va+length {
								r.SwapOut(0, r.Pages())
							}
						}
					case 1:
						rt.Reclaim(true)
					case 2:
						rt.CollectFull(false)
					}
					checkNoAliasing(t, where, rt.Runtime, states[i])
					checkFillers(t, where, rt, states[i], inv%3 != 0)
					recycled = recycled || len(auditHeap(rt.Runtime).free) > 0
				}
			}
			if !recycled {
				t.Errorf("%s: nothing was ever recycled; the audit checked nothing", where)
			}
			for _, rt := range rts {
				fillers[name] += rt.seen
			}
		}
	}
	for _, name := range []string{hotspot.RuntimeName, v8heap.RuntimeName} {
		if fillers[name] == 0 {
			t.Errorf("%s: no dead-run filler was ever placed; the filler laws checked nothing", name)
		}
	}
}
