//go:build !aomplib_portable_gls

package gls

import (
	"sync/atomic"
	"unsafe"

	// The profiler-label hooks below are provided by the runtime under
	// runtime/pprof's name; the import documents the dependency.
	_ "runtime/pprof"
)

// The runtime keeps one pointer-sized profiler-label slot per goroutine
// (g.labels). It is read and written only by the owning goroutine, scanned
// by the garbage collector, and — crucially for the execution model —
// copied to child goroutines at spawn. These two hooks are how
// runtime/pprof itself accesses the slot; they have been stable since
// Go 1.9.

//go:linkname runtime_getProfLabel runtime/pprof.runtime_getProfLabel
func runtime_getProfLabel() unsafe.Pointer

//go:linkname runtime_setProfLabel runtime/pprof.runtime_setProfLabel
func runtime_setProfLabel(labels unsafe.Pointer)

// noLabels is what a node's first word points at: zeroed memory as large
// as the map header go1.23's profiler reads there. Its address doubles as
// the ownership mark telling this package's nodes from foreign label maps
// (runtime/pprof.labelMap) the application may have installed — a foreign
// map's first word is a heap pointer or nil, never this package-level
// address.
var noLabels [8]uintptr

// node is one goroutine-local binding. Nodes from different stores share a
// single per-goroutine chain through prev (the label slot holds the head).
//
// The profiler reads the slot of a sampled goroutine as its own *labelMap,
// so the leading words must look like an empty label set on both layouts:
// go1.23's map[string]string (word 0 is the map header pointer: noLabels
// has count 0) and go1.24's struct{ list []label } (words 0–2 are the
// slice: length and capacity 0). mark, store and val are immutable after
// publication; prev is atomic because the owning goroutine may unlink an
// interior node (Pop of an outer store) while goroutines that inherited
// the chain at spawn are still traversing it.
type node struct {
	mark  *[8]uintptr // always &noLabels
	_, _  uintptr     // always 0
	store *Store
	val   any
	prev  atomic.Pointer[node]
}

// own interprets a label pointer as one of our nodes, or returns nil for
// nil and foreign pointers. The first word is validated through a
// one-word view before the *node conversion: reading one word of a foreign
// label map is safe (pprof label maps are word-aligned, at least one word
// long), and converting to the larger node type only after the mark
// matches keeps the unsafe.Pointer rules (and -d=checkptr) satisfied.
func own(p unsafe.Pointer) *node {
	if p == nil || *(**[8]uintptr)(p) != &noLabels {
		return nil
	}
	return (*node)(p)
}

// Store maps the current goroutine to a stack of values. Multiple stores
// interleave on one shared per-goroutine chain and are distinguished by
// store identity — the struct must have non-zero size so each NewStore
// call yields a distinct address.
type Store struct {
	_ uint8
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Push associates v with the current goroutine, stacking on top of any
// previous association (nested regions). The binding is inherited by
// goroutines spawned while it is active.
func (s *Store) Push(v any) {
	n := &node{mark: &noLabels, store: s, val: v}
	n.prev.Store((*node)(runtime_getProfLabel()))
	runtime_setProfLabel(unsafe.Pointer(n))
}

// Token records the goroutine-local state captured by PushToken, so
// Restore can rewind to it wholesale.
type Token struct {
	prev *node // the label (ours, foreign, or nil) current before the push
}

// PushToken is Push returning a Token for Restore. Strictly LIFO scopes —
// parallel-region entry/exit — prefer this pairing: Restore rewinds the
// goroutine's slot to exactly the captured state, so it stays safe even if
// the application clobbered the label slot in between (runtime/pprof label
// APIs replace the slot and restore their own idea of "previous", which
// silently discards bindings pushed after the context they captured).
func (s *Store) PushToken(v any) Token {
	prev := (*node)(runtime_getProfLabel())
	n := &node{mark: &noLabels, store: s, val: v}
	n.prev.Store(prev)
	runtime_setProfLabel(unsafe.Pointer(n))
	return Token{prev: prev}
}

// Restore rewinds the goroutine's binding state to the point the Token was
// captured, discarding anything stacked (or clobbered) since.
func (s *Store) Restore(t Token) {
	runtime_setProfLabel(unsafe.Pointer(t.prev))
}

// Slot is a preallocated, reusable binding of one (store, value) pair.
// PushSlot/Restore pairs bind and unbind it at pointer cost — no node
// allocation — which is what lets a hot team's workers re-establish their
// context on every lease of the team with zero allocations.
//
// A Slot may be live on at most one goroutine's chain at a time; callers
// (the team lease protocol in internal/rt) must guarantee exclusivity.
// Goroutines that inherited a chain through the slot at spawn keep
// traversing safely after the slot is re-pushed elsewhere: the store and
// value are immutable after NewSlot and the chain link is atomic, so they
// merely observe the slot's current link.
type Slot struct{ n node }

// NewSlot returns a reusable binding of v for this store.
func (s *Store) NewSlot(v any) *Slot {
	sl := &Slot{}
	sl.n.mark = &noLabels
	sl.n.store = s
	sl.n.val = v
	return sl
}

// PushSlot binds sl on the current goroutine, stacking on top of whatever
// is bound, and returns the Token that Restore rewinds. Unlike PushToken
// it allocates nothing: the node lives in the slot.
func (s *Store) PushSlot(sl *Slot) Token {
	prev := (*node)(runtime_getProfLabel())
	sl.n.prev.Store(prev)
	runtime_setProfLabel(unsafe.Pointer(&sl.n))
	return Token{prev: prev}
}

// Pop removes the most recent association this goroutine holds for s,
// restoring the one below it (which may belong to another store, or be a
// foreign profiler label). It panics if no association is reachable, which
// always indicates a Push/Pop pairing bug in the runtime layer.
func (s *Store) Pop() {
	head := own(runtime_getProfLabel())
	if head != nil && head.store == s {
		runtime_setProfLabel(unsafe.Pointer(head.prev.Load()))
		return
	}
	for n := head; n != nil; {
		p := own(unsafe.Pointer(n.prev.Load()))
		if p == nil {
			break
		}
		if p.store == s {
			n.prev.Store(p.prev.Load())
			return
		}
		n = p
	}
	panic("gls: Pop without matching Push")
}

// Current returns the most recent value associated with the current
// goroutine (directly or by spawn-time inheritance), or nil if there is
// none — code running outside any parallel region.
func (s *Store) Current() any {
	for n := own(runtime_getProfLabel()); n != nil; n = own(unsafe.Pointer(n.prev.Load())) {
		if n.store == s {
			return n.val
		}
	}
	return nil
}

// Depth reports the number of bindings of this store reachable from the
// current goroutine.
func (s *Store) Depth() int {
	d := 0
	for n := own(runtime_getProfLabel()); n != nil; n = own(unsafe.Pointer(n.prev.Load())) {
		if n.store == s {
			d++
		}
	}
	return d
}
