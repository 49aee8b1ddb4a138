package parallel

import (
	"aomplib/internal/rt"
	"aomplib/internal/sched"
)

// forEntry is the pooled region argument of For/ForRange. It is not
// generic — index bodies need no type parameter — so one pool serves every
// call site.
type forEntry struct {
	cfg   config
	sp    sched.Space
	kind  sched.Kind
	chunk int
	key   any // encounter key: e itself, or a stable loopKey for Adaptive
	idx   func(i int)
	rng   func(lo, hi int)
}

// For executes body(i) for every i in [lo, hi), distributing iterations
// over a worker team according to WithSchedule (default Static, one
// contiguous block per worker). It returns when every iteration has run;
// the region join is the barrier. At top level a call is a warm hot-team
// region entry — zero allocations in steady state; called inside an
// existing parallel region it instead splits the range into stealable
// tasks on the current team (composable nesting, no nested region).
//
// body must be safe to call concurrently from multiple goroutines for
// distinct i. A panic in body propagates to the caller after the loop
// drains, matching the woven @For construct. A range of more iterations
// than an int counts (hi − lo past math.MaxInt) panics before any runs.
func For(lo, hi int, body func(i int), opts ...Opt) {
	runFor(sched.Space{Lo: lo, Hi: hi, Step: 1}, opts, body, nil)
}

// ForRange is the range-chunk variant of For: body(lo, hi) receives whole
// sub-ranges instead of single indices, one call per scheduling unit —
// one block per worker under Static, one claim under Dynamic and Guided
// (up to four grains, see WithGrain). Use
// it when the body amortizes per-call work over a range (slice kernels,
// SIMD-friendly inner loops): it is For with the per-index indirect call
// hoisted out.
func ForRange(lo, hi int, body func(lo, hi int), opts ...Opt) {
	runFor(sched.Space{Lo: lo, Hi: hi, Step: 1}, opts, nil, body)
}

// runFor is the shared driver behind For and ForRange. The options fold
// into the pooled entry's config so the dispatch stays allocation-free.
func runFor(sp sched.Space, opts []Opt, idx func(int), rng func(int, int)) {
	n := sp.Count()
	if n <= 0 {
		if n < 0 {
			panic(sp.Validate()) // more iterations than an int counts
		}
		return
	}
	e := forPool.Get().(*forEntry)
	applyInto(&e.cfg, opts)
	if w := rt.Current(); w != nil {
		// Nested: decompose onto the current team's deques.
		grain := e.cfg.grain
		forPool.Put(e)
		if grain < 1 {
			grain = sched.AutoGrain(n)
		}
		rt.TaskGroupScope(func() {
			rt.SpawnRange(sp, grain, func(sub sched.Space) { forSpanFuncs(sub, idx, rng) })
		})
		return
	}
	width := e.cfg.width(n)
	if width <= 1 {
		forPool.Put(e)
		forSpanFuncs(sp, idx, rng)
		return
	}
	e.sp = sp
	e.kind = sched.Resolve(e.cfg.sched, n, width)
	e.chunk = e.cfg.grain
	e.idx, e.rng = idx, rng
	e.key = e
	if e.kind == sched.Adaptive {
		// Adaptive state must survive entry recycling: key by the body's
		// code location instead of the pooled entry.
		if idx != nil {
			e.key = stableKey(idx)
		} else {
			e.key = stableKey(rng)
		}
	}
	rt.RegionArg(width, forBody, e)
	e.idx, e.rng = nil, nil
	forPool.Put(e)
}

// forPool recycles forEntry region arguments.
var forPool = poolOf[forEntry]()

// forBody is the region body: every worker runs its schedule-assigned
// share of the space. Package-level func value + pooled arg keeps the
// dispatch allocation-free.
func forBody(w *rt.Worker, arg any) {
	e := arg.(*forEntry)
	rt.ForSpan(w, e.sp, e.kind, e.key, e.chunk, forSpan, arg)
}

// forSpan executes one dispensed sub-range.
func forSpan(sub sched.Space, arg any) {
	e := arg.(*forEntry)
	forSpanFuncs(sub, e.idx, e.rng)
}

// forSpanFuncs runs a sub-range through whichever body shape was given.
// Cyclic assignments arrive as strided spaces; a range body then receives
// one unit-width call per index, so every schedule is legal for both
// variants.
func forSpanFuncs(sub sched.Space, idx func(int), rng func(int, int)) {
	if sub.Step == 1 {
		if idx != nil {
			for i := sub.Lo; i < sub.Hi; i++ {
				idx(i)
			}
			return
		}
		rng(sub.Lo, sub.Hi)
		return
	}
	n := sub.Count()
	for k := 0; k < n; k++ {
		i := sub.At(k)
		if idx != nil {
			idx(i)
		} else {
			rng(i, i+1)
		}
	}
}
