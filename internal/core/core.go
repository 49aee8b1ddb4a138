// Package core implements the AOmpLib itself: "a library of aspects
// modules implementing most common used OpenMP abstractions, which can be
// composed with a base program either through plain Java annotations or
// through AspectJ pointcuts" (paper §I) — transliterated to Go on top of
// the weaver, rt, sched and gls substrates.
//
// Every abstraction of the paper's Table 1 is provided, in both styles:
//
//	Pointcut style                      Annotation style
//	------------------------------      ----------------------------
//	ParallelRegion(pc)                  Parallel{Threads: n}
//	ForShare(pc).Schedule(k)            For{Schedule: k}
//	TaskSpawn(pc)                       Task{}
//	TaskWaitPoint(pc)                   TaskWait{}
//	FutureTaskSpawn(pc)                 FutureTask{}  (+ Future getters)
//	OrderedSection(pc)                  Ordered{}
//	CriticalSection(pc).ID(name)        Critical{ID: name}
//	BarrierBeforePoint(pc)              BarrierBefore{}
//	BarrierAfterPoint(pc)               BarrierAfter{}
//	ReadersWriter().Reader(pc)...       Reader{ID}/Writer{ID}
//	SingleSection(pc)                   Single{}
//	MasterSection(pc)                   Master{}
//	NewThreadLocal(pc, id)              ThreadLocalField{ID: id, ...}
//	ReducePoint(pc, tl, merge)          Reduce{ID: id, Merge: ...}
//
// Case-specific mechanisms are built with Around (custom advice) and
// ForShare(...).CustomSchedule (custom loop scheduling), the two extension
// points the paper calls out for tuning performance.
package core

import (
	"aomplib/internal/pointcut"
	"aomplib/internal/weaver"
)

// Advice precedence: higher wraps further out. The ordering encodes the
// execution model: a parallel region encloses everything; barriers enclose
// the work they delimit; work-sharing splits before single/master filter;
// mutual exclusion and thread-local access are innermost.
const (
	PrecParallel    = 100
	PrecTaskWait    = 96
	PrecTask        = 95
	PrecTaskGroup   = 93 // inside @Task: a spawned task's body opens the scope
	PrecBarrier     = 90
	PrecReduce      = 85
	PrecTaskLoop    = 81 // outside @For: a shared sub-range may be task-decomposed
	PrecFor         = 80
	PrecMaster      = 70
	PrecSingle      = 70
	PrecOrdered     = 60
	PrecCritical    = 50
	PrecRW          = 50
	PrecThreadLocal = 40
)

// mustPC parses a pointcut expression, panicking on malformed aspect
// definitions (they are compile-time constants of the using program).
func mustPC(pc string) weaver.Matcher { return pointcut.MustParse(pc) }

// advice is the common base for the library's advice implementations.
type advice struct {
	name        string
	prec        int
	needsWorker bool
	wrap        func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc
	validate    func(jp *weaver.Joinpoint) error
}

func (a advice) AdviceName() string { return a.name }
func (a advice) Precedence() int    { return a.prec }
func (a advice) NeedsWorker() bool  { return a.needsWorker }
func (a advice) Wrap(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
	return a.wrap(jp, next)
}
func (a advice) ValidateJP(jp *weaver.Joinpoint) error {
	if a.validate == nil {
		return nil
	}
	return a.validate(jp)
}

// Compose aggregates several aspects into one deployable module — the
// analogue of "creating a new abstract aspect enclosing several aspects as
// inner aspects" for OpenMP's combined constructs.
func Compose(name string, aspects ...weaver.Aspect) weaver.Aspect {
	var bind []weaver.Binding
	for _, a := range aspects {
		bind = append(bind, a.Bindings()...)
	}
	return &weaver.SimpleAspect{Name: name, Bind: bind}
}

// Around builds a case-specific aspect from a raw around-advice function,
// the library's general extension point: "specific aspect modules can
// provide such code". proceed invokes the rest of the chain; the advice
// may call it zero, one or several times, rewriting the Call in between.
func Around(name, pc string, precedence int, needsWorker bool,
	fn func(c *weaver.Call, proceed func(*weaver.Call))) weaver.Aspect {
	adv := advice{
		name: name, prec: precedence, needsWorker: needsWorker,
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			return func(c *weaver.Call) { fn(c, next) }
		},
	}
	return &weaver.SimpleAspect{Name: name, Bind: []weaver.Binding{{Matcher: mustPC(pc), Advice: adv}}}
}
