// Package rt is AOmpLib's runtime: it implements the paper's execution
// model (§III.A) — parallel regions executed by a team of workers, with
// the master participating as worker 0 and joining the team at region
// exit (paper Fig. 9) — and everything that has grown around it since.
//
// The subsystems, roughly in the order later PRs added them:
//
//   - Regions and hot teams. Region/RegionArg enter a parallel region on
//     a leased, pre-spawned worker team from a bounded pool, so warm
//     steady-state entry is allocation-free. Multi-tenant admission
//     control arbitrates the pool across concurrent clients (FIFO
//     fairness with per-tenant quotas and reject/timeout degradation).
//   - Tasks. SpawnArg and SpawnFuture (Spawn and SpawnDep are the closure
//     forms) share one deferral routine: a task goes onto the spawning
//     worker's deque, where idle workers steal it, or waits on the
//     dependence tracker until its Deps (in/out/inout addresses) are
//     satisfied, or, outside a region, runs on its own goroutine. Task
//     groups and futures provide the joining constructs.
//   - Synchronisation. A tree barrier that spins for as long as a park
//     has been measured to cost, then parks,
//     per-construct encounter rings (encounter.go: repeated constructs
//     inside one region stay matched across workers with no lock, map or
//     allocation), and named/per-object critical-lock registries.
//   - Loop dispatch. ForContext.Next is the one loop driver: it serves a
//     worker's static share, a custom schedule's parts, a dynamic/guided
//     claim or a steal chunk, for the woven @For and ForSpan alike
//     (ForSpan runs a declared static kind as pure arithmetic, with no
//     encounter). The schedule is the one the loop names; steal carves
//     the static-block partition, and only an adaptive encounter reads
//     the clock, to time its shares for the next encounter's decision. SpawnRange decomposes a range into stealable tasks by
//     recursive binary splitting. These are the primitives the public
//     parallel package builds its algorithms on.
//   - Observability. Every interesting transition reports into
//     internal/obs's tracer and metrics registry; with both off each emit
//     point is a single predicted branch.
package rt
