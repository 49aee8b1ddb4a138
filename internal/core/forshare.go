package core

import (
	"fmt"
	"slices"

	"aomplib/internal/rt"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// ForAspect applies the for work-sharing construct to for methods
// (methods exposing the loop iteration space in their first three int
// parameters): each team worker executes a rewritten iteration range
// according to the schedule (paper §III.C, Figs. 10-11).
//
// Outside a parallel region the method runs its full range — sequential
// semantics are preserved when the enclosing region aspect is unplugged.
type ForAspect struct {
	name    string
	matcher weaver.Matcher
	kind    sched.Kind
	chunk   int
	custom  sched.ScheduleFunc
	wait    *bool // explicit barrier override; nil = schedule default
}

// ForShare binds the for construct to the for methods selected by pc.
// The default schedule is static by blocks, as in OpenMP.
func ForShare(pc string) *ForAspect { return newForShare(mustPC(pc)) }

func newForShare(m weaver.Matcher) *ForAspect {
	return &ForAspect{name: "For", matcher: m, kind: sched.StaticBlock}
}

// Named renames the aspect module.
func (a *ForAspect) Named(name string) *ForAspect { a.name = name; return a }

// Schedule selects the scheduling policy — @For(schedule=...). On a team of
// one a dispensing kind (dynamic, guided, steal, adaptive, and runtime when
// it reads one) resolves to static by blocks: the method runs once over the
// whole range with no end barrier, and ForContext.Kind and the WorkBegin
// event report staticBlock.
func (a *ForAspect) Schedule(k sched.Kind) *ForAspect { a.kind = k; return a }

// Chunk sets the chunk of the dynamic, guided and steal schedules (default
// 1, "for simplicity the chunk size was defined as one"): the balance unit
// and the least a worker takes at a time — not a bound on the range one
// call receives. The method runs once per claim on the shared cursor, and a
// dynamic claim is four chunks while more than four per worker remain (one
// in the tail; guided: remainder over twice the team width, at least one
// chunk), so size per-call scratch by hi−lo, not by n. On a team of one the
// chunk has no effect: the whole range is one call.
func (a *ForAspect) Chunk(n int) *ForAspect { a.chunk = n; return a }

// CustomSchedule installs a case-specific schedule (Table 2: the Sparse
// benchmark's nonzero-balanced partition is one).
func (a *ForAspect) CustomSchedule(fn sched.ScheduleFunc) *ForAspect {
	a.kind = sched.Custom
	a.custom = fn
	return a
}

// NoWait suppresses the implicit end-of-construct barrier that dynamic and
// guided schedules otherwise perform (paper Fig. 11: "Each thread, after
// finishing its work, will call a barrier").
func (a *ForAspect) NoWait() *ForAspect { f := false; a.wait = &f; return a }

// Wait forces an end-of-construct barrier for static schedules as well.
func (a *ForAspect) Wait() *ForAspect { tr := true; a.wait = &tr; return a }

// implicitBarrier decides the end-of-construct barrier for the schedule an
// encounter resolved to (width, trip count and Adaptive's feedback decide
// per encounter, so it cannot be precomputed from the declared kind).
// Steal barriers like dynamic: workers finish at data-dependent points
// after range migration, so code after the construct may not assume its
// own static share ran last.
func (a *ForAspect) implicitBarrier(k sched.Kind) bool {
	if a.wait != nil {
		return *a.wait
	}
	return k == sched.Dynamic || k == sched.Guided || k == sched.Steal
}

// AspectName implements weaver.Aspect.
func (a *ForAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *ForAspect) Bindings() []weaver.Binding {
	adv := advice{
		name:        fmt.Sprintf("for(%s)", a.kind),
		prec:        PrecFor,
		needsWorker: true,
		validate: func(jp *weaver.Joinpoint) error {
			if jp.Kind() != weaver.ForKind {
				return fmt.Errorf("@For requires a for method (start,end,step), got %s %s", jp.Kind(), jp.FQN())
			}
			if !slices.Contains(sched.Kinds(), a.kind) {
				return fmt.Errorf("@For on %s: unknown schedule %v", jp.FQN(), a.kind)
			}
			if a.kind == sched.Custom && a.custom == nil {
				return fmt.Errorf("@For custom schedule on %s has no ScheduleFunc", jp.FQN())
			}
			return nil
		},
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			return func(c *weaver.Call) {
				w := c.Worker
				if w == nil {
					next(c) // sequential semantics: full range
					return
				}
				sp := sched.Space{Lo: c.Lo, Hi: c.Hi, Step: c.Step}
				// Adaptive follows the construct's learned state.
				// Resolution happens once per encounter inside the
				// team-shared state (the first arriving worker decides), so
				// one encounter can never split across two schedules and
				// desynchronise the implicit barrier, which follows fc.Kind.
				fc := rt.BeginFor(w, a, sp, a.kind, a.chunk, a.custom)
				k := fc.Kind
				// One pooled sub-call, copied from c once, is reused for every
				// sub-range this worker executes: a claim costs three stores,
				// not an allocation or a Call-sized copy. A team of one's one
				// static block needs no copy: it runs on c, whose range is
				// restored afterwards.
				sc := c
				if k != sched.StaticBlock || w.Team.Size > 1 {
					sc = weaver.GetCall()
					*sc = *c
				}
				for sub, _, ok := fc.Next(); ok; sub, _, ok = fc.Next() {
					sc.Lo, sc.Hi, sc.Step = sub.Lo, sub.Hi, sub.Step
					next(sc)
				}
				if sc != c {
					weaver.PutCall(sc)
				} else {
					c.Lo, c.Hi, c.Step = sp.Lo, sp.Hi, sp.Step
				}
				fc.EndFor()
				if a.implicitBarrier(k) {
					w.Team.Barrier().WaitWorker(w)
				}
			}
		},
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}
