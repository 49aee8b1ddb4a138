package core

import (
	"fmt"
	"sync"

	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// DepFn computes a dependence address from a keyed method's key at spawn
// time — the dynamic form of a @Depend clause element, for tasks whose
// addresses vary per call (a wavefront's block index, a grid neighbour).
// Returning nil skips the element (no such neighbour).
type DepFn func(key int) any

// depScratch holds the per-spawn resolution of dynamic clauses. The
// runtime consumes the clause slices synchronously (a spawn copies the
// keys into its tracker before returning), so the buffers are recycled
// immediately after the spawn — dataflow spawning through the weaver does
// not allocate a fresh clause set per task.
type depScratch struct {
	in, out, inout []any
}

var depScratchPool = sync.Pool{New: func() any { return new(depScratch) }}

// release clears the key references (addresses must not be pinned past
// the spawn) and returns the buffers to the pool. A nil scratch (static
// clauses) has nothing to release.
func (s *depScratch) release() {
	if s == nil {
		return
	}
	clear(s.in[:cap(s.in)])
	clear(s.out[:cap(s.out)])
	clear(s.inout[:cap(s.inout)])
	depScratchPool.Put(s)
}

func hasDepFn(ks []any) bool {
	for _, k := range ks {
		if _, ok := k.(DepFn); ok {
			return true
		}
	}
	return false
}

// resolveInto materialises one clause list against a call: DepFn elements
// are evaluated with the call's key, everything else passes through.
func resolveInto(dst, ks []any, c *weaver.Call) []any {
	for _, k := range ks {
		if f, ok := k.(DepFn); ok {
			k = f(c.Key)
		}
		dst = append(dst, k)
	}
	return dst
}

// resolveDeps builds the runtime dependence clauses of one spawn. The
// returned scratch is nil when the clauses are fully static (passed
// through as-is); otherwise the caller releases it after the spawn.
func resolveDeps(d Depend, c *weaver.Call) (rt.Deps, *depScratch) {
	if !hasDepFn(d.In) && !hasDepFn(d.Out) && !hasDepFn(d.InOut) {
		return rt.Deps{In: d.In, Out: d.Out, InOut: d.InOut}, nil
	}
	s := depScratchPool.Get().(*depScratch)
	s.in = resolveInto(s.in[:0], d.In, c)
	s.out = resolveInto(s.out[:0], d.Out, c)
	s.inout = resolveInto(s.inout[:0], d.InOut, c)
	return rt.Deps{In: s.in, Out: s.out, InOut: s.inout}, s
}

func (d Depend) empty() bool { return len(d.In) == 0 && len(d.Out) == 0 && len(d.InOut) == 0 }

// TaskAspect spawns a new parallel activity to execute each matched method
// call (@Task), usable inside or outside parallel regions. Completion is
// joined at a @TaskWait point or, inside a region, at the region's end.
// With dependence clauses attached (Depend), the spawn is ordered after
// the previously spawned tasks its clauses conflict with. On a team of one
// a task without clauses is undeferred: it runs at its spawn
// (rt.Undeferred).
type TaskAspect struct {
	name    string
	matcher weaver.Matcher
	deps    Depend
}

// TaskSpawn binds @Task to the methods selected by pc.
func TaskSpawn(pc string) *TaskAspect { return newTask(mustPC(pc)) }

func newTask(m weaver.Matcher) *TaskAspect { return &TaskAspect{name: "Task", matcher: m} }

// Named renames the aspect module.
func (a *TaskAspect) Named(name string) *TaskAspect { a.name = name; return a }

// Depend attaches dependence clauses to the spawned tasks (@Depend).
func (a *TaskAspect) Depend(d Depend) *TaskAspect { a.deps = d; return a }

// AspectName implements weaver.Aspect.
func (a *TaskAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *TaskAspect) Bindings() []weaver.Binding {
	deps := a.deps
	name := "task"
	if !deps.empty() {
		name = "task+depend"
	}
	adv := advice{
		name:        name,
		prec:        PrecTask,
		needsWorker: true,
		validate: func(jp *weaver.Joinpoint) error {
			if jp.Kind() == weaver.ValueKind {
				return fmt.Errorf("@Task on value-returning %s: use @FutureTask", jp.FQN())
			}
			return nil
		},
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			// On a team of one a task without clauses runs at its spawn, on
			// the spawner's Call. Any other task runs a pooled copy of the
			// call (the spawner's is recycled when it returns) through run,
			// built once per weave: a spawn allocates neither the copy nor
			// a closure.
			undeferrable := deps.empty()
			run := func(arg any) {
				tc := arg.(*weaver.Call)
				next(tc)
				weaver.PutCall(tc)
			}
			return func(c *weaver.Call) {
				if undeferrable && rt.Undeferred(c.Worker) {
					next(c)
					return
				}
				d, scratch := resolveDeps(deps, c)
				tc := weaver.GetCall()
				*tc = *c
				rt.SpawnArg(c.Worker, run, tc, d)
				scratch.release()
			}
		},
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}

// TaskWaitAspect turns matched methods into join points between spawning
// and spawned activities (@TaskWait): all outstanding tasks of the
// caller's task scope complete before the method body runs (or after,
// with After).
type TaskWaitAspect struct {
	name    string
	matcher weaver.Matcher
	after   bool
}

// TaskWaitPoint binds @TaskWait to the methods selected by pc.
func TaskWaitPoint(pc string) *TaskWaitAspect { return newTaskWait(mustPC(pc)) }

func newTaskWait(m weaver.Matcher) *TaskWaitAspect {
	return &TaskWaitAspect{name: "TaskWait", matcher: m}
}

// Named renames the aspect module.
func (a *TaskWaitAspect) Named(name string) *TaskWaitAspect { a.name = name; return a }

// After waits after the method body instead of before it.
func (a *TaskWaitAspect) After() *TaskWaitAspect { a.after = true; return a }

// AspectName implements weaver.Aspect.
func (a *TaskWaitAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *TaskWaitAspect) Bindings() []weaver.Binding {
	adv := advice{
		name: "taskwait",
		prec: PrecTaskWait,
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			return func(c *weaver.Call) {
				if !a.after {
					rt.TaskWait()
				}
				next(c)
				if a.after {
					rt.TaskWait()
				}
			}
		},
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}

// FutureTaskAspect runs matched value-returning methods asynchronously,
// delivering the result through a Future whose getter is the
// synchronisation point (@FutureTask/@FutureResult: methods "must return
// an object with getter/setter methods that act as synchronisation
// points"). Applies to methods registered with FutureProc; without this
// aspect the future resolves synchronously. With dependence clauses
// attached (Depend), the producer is ordered after conflicting tasks.
type FutureTaskAspect struct {
	name    string
	matcher weaver.Matcher
	deps    Depend
}

// FutureTaskSpawn binds @FutureTask to the methods selected by pc.
func FutureTaskSpawn(pc string) *FutureTaskAspect { return newFutureTask(mustPC(pc)) }

func newFutureTask(m weaver.Matcher) *FutureTaskAspect {
	return &FutureTaskAspect{name: "FutureTask", matcher: m}
}

// Named renames the aspect module.
func (a *FutureTaskAspect) Named(name string) *FutureTaskAspect { a.name = name; return a }

// Depend attaches dependence clauses to the spawned producers (@Depend).
func (a *FutureTaskAspect) Depend(d Depend) *FutureTaskAspect { a.deps = d; return a }

// AspectName implements weaver.Aspect.
func (a *FutureTaskAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *FutureTaskAspect) Bindings() []weaver.Binding {
	deps := a.deps
	name := "futureTask"
	if !deps.empty() {
		name = "futureTask+depend"
	}
	adv := advice{
		name:        name,
		prec:        PrecTask,
		needsWorker: true,
		validate: func(jp *weaver.Joinpoint) error {
			if jp.Kind() != weaver.ValueKind {
				return fmt.Errorf("@FutureTask requires a value-returning method, got %s %s", jp.Kind(), jp.FQN())
			}
			return nil
		},
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			undeferrable := deps.empty()
			return func(c *weaver.Call) {
				if undeferrable && rt.Undeferred(c.Worker) {
					next(c)
					c.Ret = rt.ResolvedFuture(c.Ret)
					return
				}
				d, scratch := resolveDeps(deps, c)
				tc := weaver.GetCall()
				*tc = *c
				c.Ret = rt.SpawnFuture(c.Worker, func() any {
					next(tc)
					v := tc.Ret
					weaver.PutCall(tc)
					return v
				}, d)
				scratch.release()
			}
		},
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}
