package core

import (
	"fmt"

	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// ThreadLocalAspect instantiates an object field per thread instead of per
// object (@ThreadLocalField): matched accessor methods (value-returning,
// produced by the M2M refactoring of a field access) return a per-worker
// value inside parallel regions and the global value outside them.
//
// Initialisation follows the paper: "each thread local object field is
// initialised with the value of the field outside the thread local
// context, if the first thread access is a read operation. Otherwise, the
// thread local value is not initialised" — i.e. write-first fields start
// fresh. InitFromGlobal covers the first case, InitFresh the second
// (e.g. per-thread force accumulators, which start zeroed).
type ThreadLocalAspect struct {
	name    string
	id      string
	matcher weaver.Matcher

	fresh      func() any
	fromGlobal func() any
}

// NewThreadLocal binds @ThreadLocalField with the given id to the accessor
// methods selected by pc.
func NewThreadLocal(pc, id string) *ThreadLocalAspect { return newThreadLocal(mustPC(pc), id) }

func newThreadLocal(m weaver.Matcher, id string) *ThreadLocalAspect {
	return &ThreadLocalAspect{name: "ThreadLocal(" + id + ")", id: id, matcher: m}
}

// Named renames the aspect module.
func (a *ThreadLocalAspect) Named(name string) *ThreadLocalAspect { a.name = name; return a }

// ID returns the field id distinguishing "several thread local fields".
func (a *ThreadLocalAspect) ID() string { return a.id }

// InitFresh initialises each worker's value with make (write-first
// semantics, e.g. zeroed accumulators).
func (a *ThreadLocalAspect) InitFresh(make func() any) *ThreadLocalAspect {
	a.fresh = make
	return a
}

// InitFromGlobal initialises each worker's value from the field value
// outside the thread-local context (read-first semantics). get must
// return an independent copy.
func (a *ThreadLocalAspect) InitFromGlobal(get func() any) *ThreadLocalAspect {
	a.fromGlobal = get
	return a
}

func (a *ThreadLocalAspect) newValue() any {
	if a.fresh != nil {
		return a.fresh()
	}
	return a.fromGlobal()
}

// Drain removes all per-worker values created for the current region entry
// of w's team, handing each to merge in worker-id order. It is the
// collection step of a reduction: the caller runs on one worker — any one;
// @Reduce uses the last to arrive — while the rest of the team waits at a
// barrier, which is what orders it against their writes.
func (a *ThreadLocalAspect) Drain(w *rt.Worker, merge func(local any)) {
	slots := w.Locals(a)
	for i, v := range slots {
		if v != nil {
			slots[i] = nil
			merge(v)
		}
	}
}

// Values returns a snapshot of the per-worker values for the current
// region entry of w's team without draining them (worker-id order).
// Callers read other workers' copies, so a team barrier must separate the
// call from the accesses that created them.
func (a *ThreadLocalAspect) Values(w *rt.Worker) []any {
	slots := w.Locals(a)
	out := make([]any, 0, len(slots))
	for _, v := range slots {
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// AspectName implements weaver.Aspect.
func (a *ThreadLocalAspect) AspectName() string { return a.name }

// tlAdvice is @ThreadLocalField's advice. WorkerValue is the whole of it
// inside a region, so the weaver answers a sole-advice accessor with it
// directly (weaver.WorkerValuer) and the reified stage below calls the same.
type tlAdvice struct {
	advice
	a *ThreadLocalAspect
}

// WorkerValue implements weaver.WorkerValuer: w's copy, created on first
// access in the lease and published into Locals(a)[w.ID].
func (t *tlAdvice) WorkerValue(w *rt.Worker) any { return w.TLS(t.a, t.a.newValue) }

// Bindings implements weaver.Aspect.
func (a *ThreadLocalAspect) Bindings() []weaver.Binding {
	adv := &tlAdvice{a: a}
	adv.advice = advice{
		name:        "threadLocal(" + a.id + ")",
		prec:        PrecThreadLocal,
		needsWorker: true,
		validate: func(jp *weaver.Joinpoint) error {
			if jp.Kind() != weaver.ValueKind {
				return fmt.Errorf("@ThreadLocalField requires a value-returning accessor, got %s %s", jp.Kind(), jp.FQN())
			}
			if a.fresh == nil && a.fromGlobal == nil {
				return fmt.Errorf("@ThreadLocalField(%s) has no initialiser (InitFresh or InitFromGlobal)", a.id)
			}
			return nil
		},
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			return func(c *weaver.Call) {
				if c.Worker == nil {
					next(c) // outside regions the global field is used
					return
				}
				c.Ret = adv.WorkerValue(c.Worker)
			}
		},
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}

// ReduceAspect merges all thread-local copies of a field into its global
// value at matched methods (@Reduce), inside one team barrier: each worker
// drops its cached copy and arrives; the last to arrive merges every copy —
// serially, in worker-id order, while the team waits — and the release
// publishes the merged value before the method proceeds. merge therefore
// runs on whichever worker arrived last: do not assume ThreadID()==0 in it.
type ReduceAspect struct {
	name    string
	matcher weaver.Matcher
	tl      *ThreadLocalAspect
	merge   func(local any)
}

// ReducePoint binds @Reduce(id=tl.ID()) to the methods selected by pc.
// merge folds one thread-local copy into the global value; it runs serially,
// once per copy in worker-id order, on the last worker to arrive, while the
// rest of the team waits.
func ReducePoint(pc string, tl *ThreadLocalAspect, merge func(local any)) *ReduceAspect {
	return newReduce(mustPC(pc), tl, merge)
}

func newReduce(m weaver.Matcher, tl *ThreadLocalAspect, merge func(local any)) *ReduceAspect {
	return &ReduceAspect{name: "Reduce(" + tl.ID() + ")", matcher: m, tl: tl, merge: merge}
}

// Named renames the aspect module.
func (a *ReduceAspect) Named(name string) *ReduceAspect { a.name = name; return a }

// AspectName implements weaver.Aspect.
func (a *ReduceAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *ReduceAspect) Bindings() []weaver.Binding {
	drain := func(last *rt.Worker) { a.tl.Drain(last, a.merge) }
	adv := advice{
		name:        "reduce(" + a.tl.ID() + ")",
		prec:        PrecReduce,
		needsWorker: true,
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			return func(c *weaver.Call) {
				w := c.Worker
				if w == nil {
					next(c)
					return
				}
				w.TLSDelete(a.tl) // next access re-initialises
				w.Team.Barrier().WaitWorkerThen(w, drain)
				next(c)
			}
		},
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}
