// Package gls provides goroutine-local storage.
//
// AOmpLib's execution model (paper §III.A) relies on dynamic scoping: code
// running anywhere in the dynamic extent of a parallel region must be able
// to discover the worker (thread id, team) that is executing it, exactly as
// Java code can via ThreadLocal. Go deliberately hides goroutine identity,
// so this package reconstructs a per-goroutine binding stack by other
// means. Two backends are provided:
//
//   - The default backend (label.go) stores the binding stack in the
//     goroutine's profiler-label slot, reached through the stable
//     runtime/pprof label hooks. Lookup is a pointer load plus a one-word
//     validation — a few nanoseconds — which is what lets Runtime v2 keep
//     woven dispatch allocation-free and close to direct-call cost even for
//     worker-dependent advice. Because the label slot is copied to new
//     goroutines at spawn, bindings are inherited by goroutines started
//     inside a parallel region's dynamic extent (the OpenMP-task-like
//     semantics rt builds on). Programs that set their own profiler labels
//     (runtime/pprof.Do) while inside a region temporarily shadow the
//     binding; lookups then degrade to "no binding" instead of
//     misbehaving.
//
//   - A portable fallback (portable.go, build tag aomplib_portable_gls)
//     keeps the original sharded map keyed by the goroutine id parsed from
//     runtime.Stack. It has no spawn-time inheritance and a ~µs lookup, but
//     depends on nothing beyond the documented runtime.Stack header format.
//
// The store is a stack (rather than a single slot) to support nested
// parallel regions: each region entry pushes the inner worker context and
// pops it on exit, restoring the enclosing one. Push and Pop must be paired
// on the same goroutine.
package gls

import (
	"bytes"
	"runtime"
	"sync"
)

var goroutinePrefix = []byte("goroutine ")

// stackBufs holds Goid's header buffers: runtime.Stack's buffer escapes,
// so a buffer on Goid's own stack would be a heap allocation per call.
var stackBufs = sync.Pool{New: func() any { return new([64]byte) }}

// Goid returns the runtime id of the calling goroutine, parsed from the
// runtime.Stack header line ("goroutine <id> [running]:"), which is stable
// across all Go releases to date. It allocates nothing and is used by the
// portable backend and by diagnostics; the identifier is only ever a map
// key — no scheduling decision depends on it.
func Goid() int64 {
	stack := stackBufs.Get().(*[64]byte)
	n := runtime.Stack(stack[:], false)
	buf := stack[:n]
	if !bytes.HasPrefix(buf, goroutinePrefix) {
		panic("gls: unexpected runtime.Stack header: " + string(buf))
	}
	buf = buf[len(goroutinePrefix):]
	var id int64
	for i := 0; i < len(buf) && buf[i] >= '0' && buf[i] <= '9'; i++ {
		id = id*10 + int64(buf[i]-'0')
	}
	stackBufs.Put(stack)
	if id == 0 {
		panic("gls: cannot parse goroutine id from runtime.Stack header")
	}
	return id
}
