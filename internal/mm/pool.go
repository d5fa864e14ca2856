package mm

// ObjectPool hands out Objects from block allocations and recycles the
// ones a collection frees. Simulated workloads create one Object per
// allocated cluster — millions per experiment — and a per-Object heap
// allocation dominates runtime profiles. Object holds no pointers, so a
// block is a single no-scan allocation the garbage collector never
// traces into; the pool amortizes the allocator round-trip across
// poolBlock objects.
//
// Collectors return every object they drop from their space lists via
// Recycle, and New reuses those before carving a new block, so a heap
// in steady state allocates nothing on the host. This relies on the
// runtime.Runtime lifetime contract: once a caller marks a non-weak
// object Dead it holds no further reference to it. Weak objects are
// never recycled — their holder keeps the reference and reads the Dead
// flag an aggressive collection sets.
//
// A pool belongs to one heap. It moves with its instance across
// machines and is never shared between goroutines.
type ObjectPool struct {
	block []Object
	free  []*Object
}

const poolBlock = 512

// New returns a zeroed Object with Size and Weak set, equivalent to
// &Object{Size: size, Weak: weak}. A recycled object is preferred over
// carving a new block.
//
//lint:allocfree
func (p *ObjectPool) New(size int64, weak bool) *Object {
	if n := len(p.free); n > 0 {
		o := p.free[n-1]
		p.free = p.free[:n-1]
		*o = Object{Size: size, Weak: weak}
		return o
	}
	if len(p.block) == 0 {
		// One block refill per poolBlock objects.
		p.block = make([]Object, poolBlock) //lint:allow allocfree
	}
	o := &p.block[0]
	p.block = p.block[1:]
	o.Size = size
	o.Weak = weak
	return o
}

// Recycle returns an object a collection has just dropped from its
// space lists to the free list. Weak objects are ignored (see
// ObjectPool). A recycled object reads as a zero-size dead object
// until New hands it out again; recycling one twice, or one that is
// still live, panics.
//
//lint:allocfree
func (p *ObjectPool) Recycle(o *Object) {
	if o.Weak {
		return
	}
	if !o.Dead || o.Size == 0 {
		panic("mm: recycle of a live or already recycled object")
	}
	*o = Object{Dead: true}
	// The free list grows to the heap's peak dead population and is
	// reused thereafter.
	p.free = append(p.free, o) //lint:allow allocfree
}
