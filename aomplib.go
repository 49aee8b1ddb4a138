// Package aomplib is a Go reproduction of AOmpLib (Medeiros & Sobral,
// ICPP 2013): an aspect-oriented library of pluggable parallelism modules
// that mimics the OpenMP standard. Base programs register their externally
// visible methods as joinpoints; aspect modules — parallel regions, for
// work-sharing, barriers, critical sections, tasks, thread-local fields,
// reductions and more — are bound to those joinpoints by pointcut
// expressions or annotations and woven in (or unplugged) at any time,
// preserving the base program's sequential semantics.
//
// A minimal parallel loop:
//
//	prog := aomplib.NewProgram("demo")
//	cls := prog.Class("Demo")
//	loop := cls.ForProc("loop", func(lo, hi, step int) {
//		for i := lo; i < hi; i += step {
//			work(i)
//		}
//	})
//	run := cls.Proc("run", func() { loop(0, n, 1) })
//
//	prog.Use(aomplib.ParallelRegion("call(* Demo.run(..))").Threads(8))
//	prog.Use(aomplib.ForShare("call(* Demo.loop(..))"))
//	prog.MustWeave()
//	run()          // parallel
//	prog.Unweave()
//	run()          // sequential again
//
// The same composition in the annotation style:
//
//	prog.MustAnnotate("Demo.run", aomplib.Parallel{Threads: 8})
//	prog.MustAnnotate("Demo.loop", aomplib.For{})
//	prog.Use(aomplib.AnnotationAspects(prog)...)
//	prog.MustWeave()
//
// This package is a thin facade over the implementation packages
// (internal/weaver, internal/core, internal/rt, internal/sched,
// internal/pointcut); see DESIGN.md for the architecture and the mapping
// to the paper.
//
// For call sites that want a parallel loop, reduction or sort without
// registering joinpoints, the sibling package aomplib/parallel is a
// generic (type-parameterized) algorithms layer on the same runtime —
// both styles share the hot-team pool, the loop schedules, admission
// control and tracing, and compose freely: a parallel.For inside a woven
// region decomposes onto the current team.
package aomplib

import (
	"io"
	"time"

	"aomplib/internal/core"
	"aomplib/internal/obs"
	"aomplib/internal/pointcut"
	"aomplib/internal/rt"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// ------------------------------------------------ programs & joinpoints --

// Program is a base program's joinpoint registry plus its deployed
// aspects (the analogue of an AspectJ build).
type Program = weaver.Program

// Class is a declaring scope for joinpoints, carrying inheritance and
// interface metadata for pointcut matching.
type Class = weaver.Class

// Joinpoint identifies one registered method.
type Joinpoint = weaver.Joinpoint

// Call is the reified invocation flowing through advice chains.
type Call = weaver.Call

// HandlerFunc is one stage of a woven chain.
type HandlerFunc = weaver.HandlerFunc

// Advice is one parallelism mechanism applicable to joinpoints.
type Advice = weaver.Advice

// Aspect is a deployable module of pointcut→advice bindings.
type Aspect = weaver.Aspect

// Binding attaches advice to the joinpoints selected by a matcher.
type Binding = weaver.Binding

// Matcher selects joinpoints (pointcuts or exact matchers).
type Matcher = weaver.Matcher

// SimpleAspect is a convenience aspect for ad-hoc modules.
type SimpleAspect = weaver.SimpleAspect

// Annotation is the plain-annotation analogue attached via
// Program.Annotate.
type Annotation = weaver.Annotation

// WovenMethod describes one method's weave state in reports.
type WovenMethod = weaver.WovenMethod

// AdviceInfo is the per-advice detail in a weave report: deploying aspect,
// advice name, matching pointcut and whether it is enabled.
type AdviceInfo = weaver.AdviceInfo

// NewProgram creates an empty program registry.
func NewProgram(name string) *Program { return weaver.NewProgram(name) }

// Implements declares interfaces a class implements (class option).
var Implements = weaver.Implements

// Extends declares a superclass (class option).
var Extends = weaver.Extends

// Exact returns a matcher selecting a single joinpoint by identity.
var Exact = weaver.Exact

// ------------------------------------------------------------ pointcuts --

// Pointcut is a compiled pointcut expression.
type Pointcut = pointcut.Pointcut

// ParsePointcut compiles a pointcut expression such as
// "call(* Linpack.reduceAllCols(..)) || within(MD)".
var ParsePointcut = pointcut.Parse

// MustParsePointcut is ParsePointcut panicking on error.
var MustParsePointcut = pointcut.MustParse

// ------------------------------------------------------------ schedules --

// Schedule selects a for work-sharing policy.
type Schedule = sched.Kind

// Work-sharing schedules (paper Table 1: staticBlock, staticCyclic,
// dynamic; guided, steal, adaptive and case-specific are the documented
// extensions). The schedule is the one the @For construct names: nothing
// process-wide overrides it. Dynamic and Guided call the for method once
// per claim on one shared cursor — four chunks while more than four per
// worker remain, then one; Guided: the remainder over twice the team width
// — so the chunk (ForAspect.Chunk) is the balance unit, and the range a
// call receives may span four. Steal starts every worker on its
// StaticBlock range and lets workers that run dry steal half the most
// loaded sibling's remainder (the nonmonotonic:dynamic analogue):
// dynamic-grade balancing with static-grade dispensing cost. Adaptive is
// the feedback-driven kind: the first encounter of a construct is decided
// from the loop's shape (StaticBlock below 64 iterations per worker,
// Guided otherwise), every later one re-decides kind and chunk from the
// previous encounter's measured imbalance; ParseSchedule still accepts the
// former names "auto" and "weightedSteal" for Adaptive and Steal. On a team
// of one (Threads(1), or a region narrowed to one worker) the four
// dispensing kinds — Dynamic, Guided, Steal, Adaptive — run the loop as one
// StaticBlock: one call over the whole range, no end barrier, Chunk
// ignored.
const (
	StaticBlock  = sched.StaticBlock
	StaticCyclic = sched.StaticCyclic
	Dynamic      = sched.Dynamic
	Guided       = sched.Guided
	Steal        = sched.Steal
	CaseSpecific = sched.Custom
	Adaptive     = sched.Adaptive
)

// ParseSchedule resolves a schedule name ("staticBlock", "dynamic",
// "adaptive", ...) to its Schedule, erroring with the valid list on unknown
// names — the parser behind benchmark flags like jgfbench -schedule.
var ParseSchedule = sched.ParseKind

// ScheduleFunc is the case-specific schedule extension point.
type ScheduleFunc = sched.ScheduleFunc

// Space is a loop iteration space (start, end, step).
type Space = sched.Space

// ------------------------------------------------- aspect constructors --

// ParallelRegion makes matched methods parallel regions (@Parallel).
var ParallelRegion = core.ParallelRegion

// ForShare applies the for work-sharing construct to matched for methods
// (@For).
var ForShare = core.ForShare

// TaskSpawn spawns matched methods as new activities (@Task). Attach
// dependence clauses with .Depend (@Depend).
var TaskSpawn = core.TaskSpawn

// TaskWaitPoint makes matched methods join points for spawned activities
// (@TaskWait).
var TaskWaitPoint = core.TaskWaitPoint

// TaskGroupSection scopes matched methods as task groups (@TaskGroup):
// the method joins every task spawned in its dynamic extent before
// returning.
var TaskGroupSection = core.TaskGroupSection

// TaskLoopShare decomposes matched for methods into deferred,
// work-stealable tasks (@TaskLoop).
var TaskLoopShare = core.TaskLoopShare

// FutureTaskSpawn runs matched value-returning methods asynchronously
// behind a Future (@FutureTask). Attach dependence clauses with .Depend.
var FutureTaskSpawn = core.FutureTaskSpawn

// OrderedSection serialises matched keyed methods in iteration order
// (@Ordered).
var OrderedSection = core.OrderedSection

// CriticalSection enforces mutual exclusion on matched methods
// (@Critical).
var CriticalSection = core.CriticalSection

// BarrierBeforePoint inserts a team barrier before matched methods
// (@BarrierBefore).
var BarrierBeforePoint = core.BarrierBeforePoint

// BarrierAfterPoint inserts a team barrier after matched methods
// (@BarrierAfter).
var BarrierAfterPoint = core.BarrierAfterPoint

// BarrierAroundPoint inserts barriers on both sides of matched methods.
var BarrierAroundPoint = core.BarrierAroundPoint

// ReadersWriter builds a readers/writer aspect (@Reader/@Writer).
var ReadersWriter = core.ReadersWriter

// SingleSection lets one worker execute each encounter (@Single).
var SingleSection = core.SingleSection

// MasterSection restricts matched methods to the master (@Master).
var MasterSection = core.MasterSection

// NewThreadLocal makes matched accessors return per-thread values
// (@ThreadLocalField).
var NewThreadLocal = core.NewThreadLocal

// ReducePoint merges thread-local copies into the global value at matched
// methods (@Reduce): merge runs serially, in worker-id order, on the last
// worker to arrive — do not assume ThreadID()==0 inside it.
var ReducePoint = core.ReducePoint

// Around builds a case-specific aspect from a raw advice function.
var Around = core.Around

// Compose aggregates aspects into one module (combined constructs).
var Compose = core.Compose

// AnnotationAspects translates a program's annotations into concrete
// aspects (the annotation style of paper Fig. 5).
var AnnotationAspects = core.AnnotationAspects

// Aspect types returned by the constructors, for callers that configure
// them across statements.
type (
	// ParallelRegionAspect is ParallelRegion's aspect type.
	ParallelRegionAspect = core.ParallelRegionAspect
	// ForAspect is ForShare's aspect type.
	ForAspect = core.ForAspect
	// CriticalAspect is CriticalSection's aspect type.
	CriticalAspect = core.CriticalAspect
	// TaskAspect is TaskSpawn's aspect type (carries .Depend).
	TaskAspect = core.TaskAspect
	// FutureTaskAspect is FutureTaskSpawn's aspect type (carries .Depend).
	FutureTaskAspect = core.FutureTaskAspect
	// TaskLoopAspect is TaskLoopShare's aspect type (.Grainsize/.Collapse).
	TaskLoopAspect = core.TaskLoopAspect
	// ThreadLocalAspect is NewThreadLocal's aspect type.
	ThreadLocalAspect = core.ThreadLocalAspect
	// RWAspect is ReadersWriter's aspect type.
	RWAspect = core.RWAspect
)

// ----------------------------------------------------------- annotations --

// Annotation types (paper Table 1), attached with Program.Annotate and
// realised by AnnotationAspects.
type (
	// Parallel marks a parallel region — @Parallel[(threads=n)].
	Parallel = core.Parallel
	// For marks a for method for work sharing — @For[(schedule=...)].
	For = core.For
	// Task spawns the method as a new activity — @Task.
	Task = core.Task
	// Depend orders a @Task/@FutureTask after conflicting earlier spawns —
	// @Depend(in=…, out=…, inout=…) on address keys.
	Depend = core.Depend
	// DepFn computes a dependence address from a keyed method's key at
	// spawn time (dynamic @Depend clause element).
	DepFn = core.DepFn
	// TaskGroup makes the method a scoped wait for the tasks spawned in
	// its dynamic extent — @TaskGroup.
	TaskGroup = core.TaskGroup
	// TaskLoop decomposes a for method into deferred tasks —
	// @TaskLoop[(grainsize=n)].
	TaskLoop = core.TaskLoop
	// TaskWait joins spawned activities — @TaskWait.
	TaskWait = core.TaskWait
	// FutureTask spawns a value-returning method — @FutureTask.
	FutureTask = core.FutureTask
	// Ordered serialises a keyed method in iteration order — @Ordered.
	Ordered = core.Ordered
	// Critical enforces mutual exclusion — @Critical[(id=name)].
	Critical = core.Critical
	// BarrierBefore inserts a barrier before the method.
	BarrierBefore = core.BarrierBefore
	// BarrierAfter inserts a barrier after the method.
	BarrierAfter = core.BarrierAfter
	// Reader marks a read access of a readers/writer pair — @Reader.
	Reader = core.Reader
	// Writer marks a write access of a readers/writer pair — @Writer.
	Writer = core.Writer
	// Single lets one worker execute each encounter — @Single.
	Single = core.Single
	// Master restricts execution to the master — @Master.
	Master = core.Master
	// ThreadLocalField makes an accessor thread-local — @ThreadLocalField.
	ThreadLocalField = core.ThreadLocalField
	// Reduce merges thread-local copies — @Reduce[(id=name)].
	Reduce = core.Reduce
)

// --------------------------------------------------------------- runtime --

// Future is the synchronisation object of @FutureTask methods
// (@FutureResult: Get blocks until the value is produced).
type Future = rt.Future

// ThreadID returns the caller's id within its team (the paper's
// getThreadId()), 0 outside parallel regions.
func ThreadID() int { return rt.ThreadID() }

// NumThreads returns the caller's team size, 1 outside regions. It is the
// width the region actually runs at: Threads(n) is a ceiling, and a woven
// region that measures faster on one worker runs on one.
func NumThreads() int { return rt.NumThreads() }

// InParallel reports whether the caller is inside a parallel region.
func InParallel() bool { return rt.Current() != nil }

// Level reports the parallel-region nesting depth at the caller: 0 outside
// any region, 1 inside an outermost region, and so on.
func Level() int { return rt.Level() }

// TaskYield is an explicit task scheduling point: the calling worker
// executes up to n queued deferred tasks of its team (its own first, then
// stolen from siblings) and reports how many ran. Outside parallel regions
// it is a no-op — tasks spawned there run on their own goroutines.
func TaskYield(n int) int { return rt.TaskYield(n) }

// DefaultThreads returns the team size of a region that does not set one:
// GOMAXPROCS, read live at each region entry.
func DefaultThreads() int { return rt.DefaultThreads() }

// SetHotTeams enables or disables hot teams (enabled by default): parallel
// regions lease long-lived worker teams — goroutines, deques, barrier and
// dependence tracker included — from a process-wide pool and return them
// afterwards, so region-per-iteration programs do not pay team
// construction per entry. Disabling drains the pool and restores
// spawn-and-discard teams. It returns the previous setting.
func SetHotTeams(on bool) bool { return rt.SetHotTeams(on) }

// HotTeamsEnabled reports whether parallel regions reuse pooled teams.
func HotTeamsEnabled() bool { return rt.HotTeamsEnabled() }

// SetPoolSize bounds how many workers the hot-team pool may keep parked
// between regions (0 restores the default of four default-sized teams).
// It returns the previous explicit bound.
func SetPoolSize(maxIdleWorkers int) int { return rt.SetPoolSize(maxIdleWorkers) }

// PoolStats snapshots the hot-team pool — the observability hook for
// tuning SetPoolSize. Counter fields are cumulative since process start:
//
//   - Leases: parallel region entries (every entry leases a team);
//   - Hits: entries served by a cached pool team;
//   - Misses: entries that cold-spawned a team with hot teams enabled
//     (pool empty for that size, or nesting overflowed it);
//   - Disabled: entries that cold-spawned because hot teams were off;
//   - Recycled: clean entries that returned their team to the pool;
//   - Retired: teams destroyed after a panic or a dead worker — poisoned
//     state is never recycled;
//   - Evicted: healthy teams dropped because the pool was full, shrunk by
//     SetPoolSize, or disabled by SetHotTeams(false).
//
// Instantaneous fields describe the moment of the call: IdleTeams and
// IdleWorkers are what is parked right now, MaxIdleWorkers the current
// capacity bound. Hits+Misses+Disabled == Leases, and every lease ends in
// exactly one of Recycled, Retired or Evicted once its region completes.
func PoolStats() TeamPoolStats { return rt.ReadPoolStats() }

// TeamPoolStats is the snapshot type returned by PoolStats.
type TeamPoolStats = rt.PoolStats

// ----------------------------------------------- multi-tenant admission --

// AdmitPolicy selects what a parallel region entry does when admission
// control has no team lease slot available: block in the FIFO queue, wait
// up to a timeout, or reject immediately. Refused entries never fail —
// they degrade to serialized execution on the calling goroutine.
type AdmitPolicy = rt.AdmitPolicy

// Admission backpressure policies (SetAdmitPolicy).
const (
	AdmitBlock   = rt.AdmitBlock
	AdmitTimeout = rt.AdmitTimeout
	AdmitReject  = rt.AdmitReject
)

// SetAdmissionControl enables or disables multi-tenant admission over the
// hot-team pool (disabled by default), returning the previous setting.
// Enabled, every top-level parallel region entry first obtains a lease
// slot from a bounded controller: at most SetAdmitMaxTeams regions hold
// teams concurrently, waiters queue FIFO — so no tenant waits unboundedly
// while another monopolizes warm teams — per-tenant quotas
// (SetTenantQuota) cap concurrent occupancy, and entries refused a lease
// (reject policy, full queue, or timeout) run serialized on a pool-
// bypassing team of one instead of failing. Nested regions ride their
// top-level entry's slot and never queue. With admission off, region
// entry pays one extra atomic load — the allocation-free warm path is
// unchanged.
func SetAdmissionControl(on bool) bool { return rt.SetAdmissionControl(on) }

// AdmissionEnabled reports whether top-level region entries pass through
// admission control.
func AdmissionEnabled() bool { return rt.AdmissionEnabled() }

// SetAdmitPolicy sets the admission backpressure policy and the queue-wait
// timeout (meaningful for AdmitTimeout; 0 keeps the current one),
// returning the previous pair.
func SetAdmitPolicy(p AdmitPolicy, timeout time.Duration) (AdmitPolicy, time.Duration) {
	return rt.SetAdmitPolicy(p, timeout)
}

// SetAdmitMaxTeams bounds how many top-level regions may hold teams
// concurrently (0 restores the default, which tracks the hot-team pool
// capacity in default-sized teams). It returns the previous explicit
// bound.
func SetAdmitMaxTeams(n int) int { return rt.SetAdmitMaxTeams(n) }

// SetAdmitQueueBound bounds the admission wait queue (0 restores the
// default of rt.DefaultAdmitQueueBound waiters); entries that would
// overflow it degrade to serialized execution instead of queueing, so a
// saturated server sheds load rather than deadlocking. It returns the
// previous explicit bound.
func SetAdmitQueueBound(n int) int { return rt.SetAdmitQueueBound(n) }

// SetTenantQuota caps how many lease slots the named tenant may hold
// concurrently (0 removes the cap), returning the previous quota. A
// tenant over its quota waits for its own releases without blocking the
// FIFO queue behind it.
func SetTenantQuota(name string, maxConcurrent int) int {
	return rt.SetTenantQuota(name, maxConcurrent)
}

// EnterTenant binds the calling goroutine to the named tenant for
// admission accounting and returns the token; call its Exit when the
// request scope ends. Parallel regions entered in the token's scope are
// arbitrated against the tenant's quota and record their outcomes —
// Admitted, Queued, Rejected, TimedOut, Degraded — on the token, so a
// request handler can tell afterwards whether it should shed load:
//
//	tok := aomplib.EnterTenant(customerID)
//	defer tok.Exit()
//	handle(req) // woven parallel code
//	if tok.Rejected() > 0 { w.WriteHeader(http.StatusServiceUnavailable) }
func EnterTenant(name string) *Tenant { return rt.EnterTenant(name) }

// Tenant is the per-request admission token returned by EnterTenant.
type Tenant = rt.TenantToken

// AdmissionStats snapshots the admission controller: policy and bounds,
// live queue depth and held slots, cumulative grant/reject/wait counters,
// and the per-tenant breakdown (occupancy, quota, waits) sorted by name.
func AdmissionStats() AdmissionSnapshot { return rt.ReadAdmissionStats() }

// AdmissionSnapshot is the snapshot type returned by AdmissionStats.
type AdmissionSnapshot = rt.AdmissionStats

// TenantAdmissionStats is one tenant's slice of an AdmissionSnapshot.
type TenantAdmissionStats = rt.TenantAdmissionStats

// ------------------------------------------------------------- tracing --

// EnableTracing turns the built-in runtime tracer on or off — the
// runtime reports region forks, hot-team leases, task lifecycles, steals,
// barrier waits and dependence releases into it — and returns whether it
// was previously on. The tracer records a
// timeline once StartTrace starts buffering; it counts nothing — event
// counts and latencies come from EnableMetrics and ReadMetrics. Disabled
// (the default), every emit point costs one atomic load and a predicted
// branch, so the allocation-free hot paths are unchanged.
func EnableTracing(on bool) bool { return obs.EnableTracing(on) }

// TracingEnabled reports whether the built-in tracer is on.
func TracingEnabled() bool { return obs.TracingEnabled() }

// StartTrace begins recording runtime events into lock-free per-worker
// ring buffers, enabling the tracer if needed and discarding any previous
// trace.
func StartTrace() { obs.StartTrace() }

// StopTrace ends the recording and writes the timeline as Chrome
// trace-event JSON to the writer — load it at ui.perfetto.dev: one track
// per worker, nested region/work/task slices, barrier-wait slices, and
// flow arrows from task spawn (and dependence release) to task run.
func StopTrace(w io.Writer) error { return obs.StopTrace(w) }

// RuntimeStats snapshots the runtime's own tallies: the hot-team pool's
// lease counters, the admission controller's queue state and per-tenant
// counters, and the tracer's ring accounting (Trace) — RingDrops (events
// shed cumulatively across traces), TraceRings (buffers allocated) and
// WorkersFolded (workers sharing rings past the ring bound), so a quiet
// trace is distinguishable from one that silently dropped its events.
// Event counts and latencies are ReadMetrics'.
func RuntimeStats() RuntimeSnapshot {
	return RuntimeSnapshot{Trace: obs.ReadStats(), Pool: rt.ReadPoolStats(), Admission: rt.ReadAdmissionStats()}
}

// RuntimeSnapshot is the aggregate returned by RuntimeStats.
type RuntimeSnapshot struct {
	// Trace is the built-in tracer's ring accounting (zero until
	// StartTrace has recorded).
	Trace TraceStats
	// Pool is the hot-team pool snapshot, always live.
	Pool TeamPoolStats
	// Admission is the multi-tenant admission snapshot, always live
	// (zero-counter when admission control has never been enabled).
	Admission AdmissionSnapshot
}

// TraceStats is the tracer's ring accounting (RuntimeSnapshot.Trace).
type TraceStats = obs.Stats

// TraceSpans builds a tracing aspect: matched methods become named spans
// on the recording trace — instrumentation woven into the base program
// like any other crosscutting concern, and unplugged the same way.
var TraceSpans = core.TraceSpans

// TraceAspect is TraceSpans' aspect type.
type TraceAspect = core.TraceAspect
