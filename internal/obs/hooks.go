package obs

// Hooks is an ordered list of callbacks: registering a second
// observer appends, it never replaces the first. Callbacks fire in
// registration order, matching the bus's determinism contract. The
// zero value is ready to use; a nil receiver is a valid empty list
// for Fire.
type Hooks[T any] struct {
	fns []func(T)
}

// Add appends fn to the list. Nil functions are ignored so callers
// can pass through optional hooks unconditionally.
func (h *Hooks[T]) Add(fn func(T)) {
	if fn == nil {
		return
	}
	h.fns = append(h.fns, fn)
}

// Fire invokes every registered callback in registration order.
func (h *Hooks[T]) Fire(v T) {
	if h == nil {
		return
	}
	for _, fn := range h.fns {
		fn(v)
	}
}

// Len returns the number of registered callbacks.
func (h *Hooks[T]) Len() int {
	if h == nil {
		return 0
	}
	return len(h.fns)
}
