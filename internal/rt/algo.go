package rt

import (
	"sync"

	"aomplib/internal/sched"
)

// This file holds the runtime hooks behind the generic algorithms layer
// (package aomplib/parallel): a loop runner that executes one worker's
// share of an iteration space under any schedule, a splittable-range task
// spawner for composable nested parallelism, and a token pool for bounded
// streaming pipelines. All three reuse the existing machinery — deques,
// steal schedule, hot teams, obs hooks — rather than introducing a second
// scheduler.

// SpanFunc executes one dispensed sub-range of a loop. The arg parameter
// threads caller state through without a per-call closure, mirroring
// RegionArg: ForSpan callers pass a long-lived function and a pooled
// argument so steady-state generic loops allocate nothing.
type SpanFunc func(sub sched.Space, arg any)

// ForSpan executes worker w's share of sp under kind, invoking run for
// each sub-range the schedule assigns to w. kind must be concrete or
// Adaptive (the caller resolves Runtime once, before the region, so one
// loop can never split across two schedules; Adaptive resolves inside the
// team-shared encounter state, uniformly for the whole team, from the
// previous encounter's measurement). Static kinds are served from pure
// arithmetic — no shared state, no allocation — which is what keeps the
// parallel.For dispatch gate at 0 allocs/op; dynamic, guided, steal and
// adaptive route through the team-shared dispenser state of BeginFor,
// exactly like the woven @For construct, so they inherit range stealing,
// speed-estimate training and the obs work/steal events for free. Under
// Dynamic and Guided run is invoked once per claim (ForContext.Dispense):
// chunk is the balance unit, and a sub-range spans up to
// dispenseBatchChunks chunks away from the loop tail. On a team of one every
// dispensing kind resolves to StaticBlock (sched.Resolve): run is invoked
// once, over all of sp.
//
// Every worker of the team must call ForSpan for the same loop (the
// standing work-sharing encounter contract). key identifies the loop's
// encounter for the dispenser-backed kinds; callers pass a pointer shared
// by the whole team (typically the region argument). For Adaptive the key
// must additionally be stable across encounters — it names the state the
// loop learns in.
//
// ForSpan performs no end-of-loop barrier: generic-layer loops are each
// their own region, whose join is the barrier. Callers sharing one region
// across phases (e.g. a two-pass scan) insert team barriers themselves.
func ForSpan(w *Worker, sp sched.Space, kind sched.Kind, key any, chunk int, run SpanFunc, arg any) {
	if kind == sched.StaticBlock || kind == sched.StaticCyclic {
		if h := obsHooks(); h != nil {
			if h.WorkBegin != nil {
				h.WorkBegin(w.gid, w.Team.tid, uint8(kind))
			}
			if h.WorkEnd != nil {
				defer h.WorkEnd(w.gid, w.Team.tid)
			}
		}
		runStaticSpan(w, sp, kind, run, arg)
		return
	}
	fc := BeginFor(w, key, sp, kind, chunk)
	switch fc.Kind {
	case sched.StaticBlock, sched.StaticCyclic:
		// An adaptive encounter resolved static this round.
		runStaticSpan(w, sp, fc.Kind, run, arg)
	case sched.Steal:
		for {
			sub, _, ok := fc.DispenseSteal()
			if !ok {
				break
			}
			run(sub, arg)
		}
	default: // Dynamic, Guided
		for {
			sub, _, ok := fc.Dispense()
			if !ok {
				break
			}
			run(sub, arg)
		}
	}
	fc.EndFor()
}

// runStaticSpan executes w's arithmetically derived static share of sp.
func runStaticSpan(w *Worker, sp sched.Space, kind sched.Kind, run SpanFunc, arg any) {
	var sub sched.Space
	if kind == sched.StaticBlock {
		sub = sched.Block(sp, w.Team.Size, w.ID)
	} else {
		sub = sched.Cyclic(sp, w.Team.Size, w.ID)
	}
	if sub.Count() > 0 {
		run(sub, arg)
	}
}

// SpawnRange decomposes sp into deferred, stealable tasks of at most grain
// iterations each, executing run on every piece exactly once. The split is
// recursive-binary: each task halves its range, spawns the right half on
// the caller's deque (claimable by idle siblings) and keeps the left, so
// an idle team balances a skewed range in O(log n) steals instead of one
// task per chunk up front. It is the composable-nesting primitive of the
// generic algorithms layer: a parallel.For encountered inside an existing
// region decomposes onto the current team's deques instead of paying a
// nested region entry.
//
// The caller owns the join: SpawnRange only spawns (tasks land in the
// caller's task scope) and runs the leftmost piece inline. Wrap it in
// TaskGroupScope, or rely on TaskWait/region end, to wait for completion.
func SpawnRange(sp sched.Space, grain int, run func(sub sched.Space)) {
	if grain < 1 {
		grain = 1
	}
	spawnRangeSplit(sp, grain, run)
}

func spawnRangeSplit(sp sched.Space, grain int, run func(sub sched.Space)) {
	for sp.Count() > grain {
		n := sp.Count()
		right := sp.Slice(n/2, n)
		sp = sp.Slice(0, n/2)
		Spawn(func() { spawnRangeSplit(right, grain, run) })
	}
	if sp.Count() > 0 {
		run(sp)
	}
}

// TokenPool is a counting semaphore whose Acquire is a task scheduling
// point: a worker that finds no token executes queued team tasks instead
// of sleeping, and parks on its task group's event channel only when
// nothing is claimable anywhere. It is the token accounting behind
// parallel.Pipeline — the bound on in-flight items — where blocking the
// ingesting worker outright would deadlock a one-worker team whose queued
// stage tasks are the only source of releases.
//
// Releases are expected to happen from inside team tasks (a task
// completion broadcasts the group event a parked Acquire waits on); a
// Release from a plain goroutine wakes only non-worker waiters. Acquire
// must be called from the goroutine that also spawns the work the tokens
// gate, so that an empty task scope implies no pending release.
type TokenPool struct {
	mu   sync.Mutex
	cond *sync.Cond
	free int
}

// NewTokenPool returns a pool holding n tokens (n < 1 is treated as 1).
func NewTokenPool(n int) *TokenPool {
	if n < 1 {
		n = 1
	}
	p := &TokenPool{free: n}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// TryAcquire takes a token without blocking, reporting success.
func (p *TokenPool) TryAcquire() bool {
	p.mu.Lock()
	ok := p.free > 0
	if ok {
		p.free--
	}
	p.mu.Unlock()
	return ok
}

// hasFree reports whether a token is available, for use as an awaitEvent
// stop condition.
func (p *TokenPool) hasFree() bool {
	p.mu.Lock()
	ok := p.free > 0
	p.mu.Unlock()
	return ok
}

// Acquire takes a token, helping execute queued team tasks while none is
// free. Outside any parallel region it simply blocks until Release.
func (p *TokenPool) Acquire() {
	w := Current()
	if w == nil {
		p.acquireSlow()
		return
	}
	for {
		if p.TryAcquire() {
			return
		}
		if t := w.findTask(); t != nil {
			w.runTask(t)
			t.decRef()
			continue
		}
		g := w.spawnGroup()
		v := g.eventStamp()
		if p.TryAcquire() {
			return
		}
		if g.Pending() == 0 {
			// No task can release a token; any release must come from a
			// plain goroutine, which only signals the pool condvar.
			p.acquireSlow()
			return
		}
		g.awaitEvent(v, p.hasFree)
	}
}

// acquireSlow blocks on the pool condvar until a token is free.
func (p *TokenPool) acquireSlow() {
	p.mu.Lock()
	for p.free == 0 {
		p.cond.Wait()
	}
	p.free--
	p.mu.Unlock()
}

// Release returns a token and wakes blocked acquirers. Worker acquirers
// parked on their task group are woken by the releasing task's own
// completion broadcast.
func (p *TokenPool) Release() {
	p.mu.Lock()
	p.free++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Free reports the tokens currently available (diagnostics/tests).
func (p *TokenPool) Free() int {
	p.mu.Lock()
	n := p.free
	p.mu.Unlock()
	return n
}
