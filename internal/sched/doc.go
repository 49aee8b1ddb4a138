// Package sched implements the loop-scheduling policies of AOmpLib's `for`
// work-sharing construct (paper §III.C/§IV). Four mechanisms serve them:
// static arithmetic (static by blocks, static cyclic), one shared cursor
// (Dispenser: dynamic and guided), carve-and-steal (StealDispenser: one
// static-block range per worker, dry workers steal from the most loaded
// sibling), and case-specific user schedules such as the one the Sparse
// benchmark requires (paper Table 2, "FOR (Case Specific)"). One indirect
// kind picks among them: Adaptive, learned per construct by the runtime.
// Every other kind is the one the loop's construct names.
//
// A for method exposes its loop as the triple (start, end, step) in its
// first three int parameters; schedulers rewrite that triple per worker.
// All computations are done in *iteration-index space* (0..Count) and
// mapped back to loop values, so remainders are distributed exactly and
// every iteration is executed exactly once — properties the tests verify
// with testing/quick.
//
// The package also carries the policy knobs shared by the facade and the
// parallel algorithms layer: Kind (with Resolve for what width and trip
// count decide, ParseKind for names and the former names) and AutoGrain, the
// default task grain used when a caller does not pick one.
package sched
