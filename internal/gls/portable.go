//go:build aomplib_portable_gls

package gls

import "sync"

// Portable backend: a sharded map keyed by the goroutine id parsed from
// runtime.Stack. Lookup cost is dominated by runtime.Stack (≈1µs); AOmpLib
// only performs lookups at woven method-call granularity (outer loops),
// never in inner loops. Unlike the label backend, bindings are NOT
// inherited by spawned goroutines.

// shardCount must be a power of two; 64 shards keep the per-shard mutexes
// uncontended for the team sizes the library targets (≤ hundreds).
const shardCount = 64

// spareStacks bounds each shard's free list of emptied stacks.
const spareStacks = 8

// A shard drops a goroutine's entry when its stack empties, so the map
// holds live bindings only, and keeps the emptied stack for the next
// goroutine's first Push: a steady stream of short-lived bindings (task
// executors, region workers) allocates nothing.
type shard struct {
	mu    sync.RWMutex
	m     map[int64][]any
	spare [][]any
}

// Store maps the current goroutine to a stack of values.
type Store struct {
	shards [shardCount]shard
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].m = make(map[int64][]any)
	}
	return s
}

func (s *Store) shardFor(id int64) *shard {
	return &s.shards[uint64(id)&(shardCount-1)]
}

// Token exists for API parity with the label backend; the map store needs
// no state to rewind (it is immune to profiler-label clobbering).
type Token struct{}

// PushToken is Push returning a Token for Restore.
func (s *Store) PushToken(v any) Token {
	s.Push(v)
	return Token{}
}

// Restore undoes the matching PushToken.
func (s *Store) Restore(Token) { s.Pop() }

// Slot is the portable counterpart of the label backend's reusable
// binding. The map store has no per-binding node to recycle, so the slot
// simply remembers the value and PushSlot pushes it; the map operations
// may allocate, which the portable backend's performance contract allows.
type Slot struct{ v any }

// NewSlot returns a reusable binding of v for this store.
func (s *Store) NewSlot(v any) *Slot { return &Slot{v: v} }

// PushSlot binds the slot's value on the current goroutine, stacking on
// top of any previous association.
func (s *Store) PushSlot(sl *Slot) Token { return s.PushToken(sl.v) }

// Push associates v with the current goroutine, stacking on top of any
// previous association (nested regions).
func (s *Store) Push(v any) {
	id := Goid()
	sh := s.shardFor(id)
	sh.mu.Lock()
	stack, ok := sh.m[id]
	if !ok && len(sh.spare) > 0 {
		stack = sh.spare[len(sh.spare)-1]
		sh.spare = sh.spare[:len(sh.spare)-1]
	}
	sh.m[id] = append(stack, v)
	sh.mu.Unlock()
}

// Pop removes the most recent association for the current goroutine.
// It panics if the goroutine has no association, which always indicates a
// Push/Pop pairing bug in the runtime layer.
func (s *Store) Pop() {
	id := Goid()
	sh := s.shardFor(id)
	sh.mu.Lock()
	stack := sh.m[id]
	if len(stack) == 0 {
		sh.mu.Unlock()
		panic("gls: Pop without matching Push")
	}
	stack[len(stack)-1] = nil
	if len(stack) == 1 {
		delete(sh.m, id)
		if len(sh.spare) < spareStacks {
			sh.spare = append(sh.spare, stack[:0])
		}
	} else {
		sh.m[id] = stack[:len(stack)-1]
	}
	sh.mu.Unlock()
}

// Current returns the most recent value associated with the current
// goroutine, or nil if there is none (code running outside any parallel
// region).
func (s *Store) Current() any {
	id := Goid()
	sh := s.shardFor(id)
	sh.mu.RLock()
	stack := sh.m[id]
	var v any
	if n := len(stack); n > 0 {
		v = stack[n-1]
	}
	sh.mu.RUnlock()
	return v
}

// Depth reports the nesting depth registered for the current goroutine.
func (s *Store) Depth() int {
	id := Goid()
	sh := s.shardFor(id)
	sh.mu.RLock()
	d := len(sh.m[id])
	sh.mu.RUnlock()
	return d
}
