package rt

import (
	"aomplib/internal/obs"
	"aomplib/internal/sched"
)

// This file holds the runtime hooks behind the generic algorithms layer
// (package aomplib/parallel): a loop runner that executes one worker's
// share of an iteration space under any schedule, and a splittable-range
// task spawner for composable nested parallelism. Both reuse the existing
// machinery — deques, dispensers, hot teams, obs events — rather than
// introducing a second scheduler.

// SpanFunc executes one dispensed sub-range of a loop. The arg parameter
// threads caller state through without a per-call closure, mirroring
// RegionArg: ForSpan callers pass a long-lived function and a pooled
// argument so steady-state generic loops allocate nothing.
type SpanFunc func(sub sched.Space, arg any)

// ForSpan executes worker w's share of sp under kind, invoking run for
// each sub-range the schedule assigns to w. kind must be concrete or
// Adaptive, which resolves inside the team-shared encounter state,
// uniformly for the whole team, from the previous encounter's measurement.
// A declared static kind runs the worker's arithmetic share directly — no
// encounter, no shared state, no allocation — which is what keeps the parallel.For dispatch gate at
// 0 allocs/op. Every other kind takes the loop driver the woven @For
// construct uses (BeginFor, Next until false, EndFor), so it inherits
// cursor dispensing, adaptive feedback and the obs work events:
// run is invoked once per sub-range Next serves — under Dynamic and Guided
// once per claim, up to dispenseBatchChunks chunks away from the loop tail.
// On a team of one every dispensing kind resolves to StaticBlock
// (sched.Resolve): run is invoked once, over all of sp.
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
// across several loops insert team barriers themselves.
func ForSpan(w *Worker, sp sched.Space, kind sched.Kind, key any, chunk int, run SpanFunc, arg any) {
	if kind == sched.StaticBlock || kind == sched.StaticCyclic {
		h := obs.Active()
		var start int64
		if h.Tracing() {
			start = obs.Now()
		}
		if sub := staticShare(sp, kind, w.Team.Size, w.ID); sub.Count() > 0 {
			run(sub, arg)
		}
		if h != nil {
			var end int64
			if h.Tracing() {
				end = obs.Now()
			}
			h.Work(w.gid, w.Team.tid, uint8(kind), start, end)
		}
		return
	}
	fc := BeginFor(w, key, sp, kind, chunk, nil)
	for sub, _, ok := fc.Next(); ok; sub, _, ok = fc.Next() {
		run(sub, arg)
	}
	fc.EndFor()
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
