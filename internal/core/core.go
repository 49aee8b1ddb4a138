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
	"aomplib/internal/rt"
	"aomplib/internal/sched"
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

// ThreadID returns the id of the calling worker within its team, 0 outside
// parallel regions — the paper's getThreadId(), available to
// application-specific aspects.
func ThreadID() int { return rt.ThreadID() }

// NumThreads returns the calling worker's team size, 1 outside regions —
// the width the region runs at, which may be below its Threads(n) ceiling.
func NumThreads() int { return rt.NumThreads() }

// InParallel reports whether the caller executes inside a parallel region.
func InParallel() bool { return rt.Current() != nil }

// Level reports the parallel-region nesting depth at the caller: 0 outside
// any region, 1 inside an outermost region, and so on.
func Level() int { return rt.Level() }

// SetNested enables or disables nested parallel regions (the analogue of
// OMP_NESTED; enabled by default). With nesting disabled, a region entered
// from inside a team runs serialized on a single-worker inner team. It
// returns the previous setting.
func SetNested(on bool) bool { return rt.SetNested(on) }

// NestedEnabled reports whether nested parallel regions spawn real teams.
func NestedEnabled() bool { return rt.NestedEnabled() }

// TaskYield is an explicit task scheduling point: the calling worker
// executes up to n queued tasks of its team (its own first, then stolen
// from siblings) and reports how many ran. Outside parallel regions it is
// a no-op.
func TaskYield(n int) int { return rt.TaskYield(n) }

// SetDefaultThreads sets the process-wide default team size (0 restores
// the live GOMAXPROCS default), atomically and for every layer — regions
// entered through the runtime directly and through aspects read the same
// default. It returns the previously stored override (0 when the default
// was GOMAXPROCS-tracking), so save/restore round-trips exactly.
// Benchmark harnesses use it to sweep thread counts without touching
// aspect definitions.
func SetDefaultThreads(n int) int { return rt.SetDefaultThreads(n) }

// DefaultThreads returns the effective default team size.
func DefaultThreads() int { return rt.DefaultThreads() }

// SetHotTeams enables or disables hot-team reuse — parallel regions
// leasing long-lived worker teams from a process-wide pool instead of
// spawning goroutines per entry (enabled by default). Disabling drains
// the pool and restores spawn-and-discard teams. It returns the previous
// setting.
func SetHotTeams(on bool) bool { return rt.SetHotTeams(on) }

// HotTeamsEnabled reports whether parallel regions reuse pooled teams.
func HotTeamsEnabled() bool { return rt.HotTeamsEnabled() }

// SetPoolSize bounds how many workers the hot-team pool may keep parked
// (0 restores the default of four default-sized teams). It returns the
// previous explicit bound.
func SetPoolSize(maxIdleWorkers int) int { return rt.SetPoolSize(maxIdleWorkers) }

// PoolStats snapshots the hot-team pool: lease/hit/miss/retire counters
// and the currently parked teams and workers.
func PoolStats() rt.PoolStats { return rt.ReadPoolStats() }

// SetDefaultSchedule sets the process-wide schedule that @For constructs
// declared with the Runtime kind resolve to (the OMP_SCHEDULE analogue).
// It returns the previous default; Runtime and Custom are rejected.
func SetDefaultSchedule(k sched.Kind) (sched.Kind, error) { return sched.SetDefault(k) }

// DefaultSchedule returns the process-wide default schedule.
func DefaultSchedule() sched.Kind { return sched.Default() }

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
