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
	seen       map[uintptr]bool
}

var (
	objectPtrType = reflect.TypeOf((*mm.Object)(nil))
	poolType      = reflect.TypeOf(mm.ObjectPool{})
	osmemPkg      = reflect.TypeOf(osmem.Region{}).PkgPath()
)

func auditHeap(rt runtime.Runtime) *objectAudit {
	a := &objectAudit{held: map[uintptr]int{}, free: map[uintptr]int{}, seen: map[uintptr]bool{}}
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

// TestRecycleNeverAliasesLiveObject drives every Table 1 function, and
// the Python extras, through all four heap models — plain
// collections, forced full collections and aggressive Desiccant
// reclamations interleaved — and after every body execution and every
// collection audits the heap's free list against everything still in
// use. CPython arenas cannot hold an object wider than an arena, so
// functions that allocate one skip pyarena.
func TestRecycleNeverAliasesLiveObject(t *testing.T) {
	runtimes := []string{hotspot.RuntimeName, v8heap.RuntimeName, g1gc.RuntimeName, pyarena.RuntimeName}
	const invocations = 6
	for _, spec := range append(All(), Extras()...) {
		for _, name := range runtimes {
			where := spec.Name + "/" + name
			if name == pyarena.RuntimeName && max(spec.ObjectSize, spec.WeakBytes) > pyarena.ArenaSize {
				continue
			}
			m := osmem.NewMachine(osmem.DefaultFaultCosts())
			rts := make([]runtime.Runtime, spec.ChainLength)
			states := make([]*State, spec.ChainLength)
			for i := range rts {
				rt, err := runtime.New(name, runtime.Config{
					AddressSpace: m.NewAddressSpace(where),
					MemoryBudget: 512 << 20,
					Cost:         mm.DefaultGCCostModel(),
				})
				if err != nil {
					t.Fatal(err)
				}
				rts[i], states[i] = rt, NewState(spec, i)
			}
			rng := sim.NewRNG(7)
			recycled := false
			for inv := 0; inv < invocations; inv++ {
				for i, st := range states {
					if _, err := st.RunBody(rts[i], rng); err != nil {
						t.Fatalf("%s: invocation %d stage %d: %v", where, inv, i, err)
					}
					checkNoAliasing(t, where, rts[i], st)
				}
				for _, st := range states {
					st.ReleaseIntermediates()
				}
				for i, rt := range rts {
					switch inv % 3 {
					case 1:
						rt.Reclaim(true)
					case 2:
						rt.CollectFull(false)
					}
					checkNoAliasing(t, where, rt, states[i])
					recycled = recycled || len(auditHeap(rt).free) > 0
				}
			}
			if !recycled {
				t.Errorf("%s: nothing was ever recycled; the audit checked nothing", where)
			}
		}
	}
}
