package core

import (
	"sync"

	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// ParallelRegionAspect makes every matched method a parallel region: the
// caller becomes the master of a new team whose workers all execute the
// method body, with an implicit join at the end (paper §III.A and Fig. 9).
// It is the analogue of extending the abstract aspect ParallelRegion and
// defining its parallelMethod() pointcut (paper Fig. 4).
type ParallelRegionAspect struct {
	name      string
	matcher   weaver.Matcher
	threads   int
	threadsFn func() int
}

// ParallelRegion binds a parallel region to the methods selected by the
// pointcut expression pc.
func ParallelRegion(pc string) *ParallelRegionAspect {
	return newParallelRegion(mustPC(pc))
}

func newParallelRegion(m weaver.Matcher) *ParallelRegionAspect {
	return &ParallelRegionAspect{name: "ParallelRegion", matcher: m}
}

// Named renames the aspect module for reports and removal.
func (a *ParallelRegionAspect) Named(name string) *ParallelRegionAspect {
	a.name = name
	return a
}

// Threads fixes the team size — the analogue of @Parallel(threads=n). It
// is a ceiling, as num_threads is under OpenMP's dyn-var: a region that
// measures faster on one worker than on n (one short next to the hand-offs
// a team costs) runs on one, and NumThreads reports the width it ran at.
func (a *ParallelRegionAspect) Threads(n int) *ParallelRegionAspect {
	a.threads = n
	return a
}

// ThreadsFunc derives the team size at region entry — the analogue of
// overriding int numThreads() in a concrete aspect. Like Threads, the size
// is a ceiling.
func (a *ParallelRegionAspect) ThreadsFunc(fn func() int) *ParallelRegionAspect {
	a.threadsFn = fn
	return a
}

// AspectName implements weaver.Aspect.
func (a *ParallelRegionAspect) AspectName() string { return a.name }

// regionEntry is the per-entry state threaded through rt.RegionArg: the
// snapshot of the entering call that every worker copies, the rest of the
// advice chain, and the call whose result the master fills in. Entries
// are recycled through a pool so a warm region entry allocates nothing —
// a per-entry closure would escape to the heap on every call, because the
// team stores the body for its workers.
type regionEntry struct {
	template weaver.Call
	next     weaver.HandlerFunc
	out      *weaver.Call
}

var regionEntryPool = sync.Pool{New: func() any { return new(regionEntry) }}

func putRegionEntry(e *regionEntry) {
	*e = regionEntry{}
	regionEntryPool.Put(e)
}

// regionBody runs one worker's share of a region entry. Each worker runs
// the chain on its own (pooled) copy of the Call so range rewrites and
// results stay private (Fig. 9: every thread, master included,
// "proceeds"); the template is snapshotted before the team starts, so the
// master's result write cannot race with worker copies.
func regionBody(w *rt.Worker, arg any) {
	e := arg.(*regionEntry)
	wc := weaver.GetCall()
	*wc = e.template
	wc.Worker = w
	e.next(wc)
	if w.ID == 0 {
		e.out.Ret = wc.Ret // master's result is the region's result
	}
	weaver.PutCall(wc)
}

// fixedWidth, when set, weaves regions without a width record, so every
// entry runs at its requested width: tests that exercise a width pin it.
var fixedWidth bool

// Bindings implements weaver.Aspect. Each woven joinpoint gets its own
// width record (rt.Grain), made afresh whenever its chain is built.
func (a *ParallelRegionAspect) Bindings() []weaver.Binding {
	adv := advice{
		name: "parallel",
		prec: PrecParallel,
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			var g *rt.Grain
			if !fixedWidth {
				g = new(rt.Grain)
			}
			return func(c *weaver.Call) {
				n := a.threads
				if a.threadsFn != nil {
					n = a.threadsFn()
				}
				if n <= 0 {
					n = rt.DefaultThreads()
				}
				e := regionEntryPool.Get().(*regionEntry)
				e.template = *c
				e.next = next
				e.out = c
				defer putRegionEntry(e) // also on the region's re-raised panic
				g.RegionArg(n, regionBody, e)
			}
		},
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}
