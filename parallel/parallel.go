// Package parallel is AOmpLib's generic algorithms layer: type-parameterized
// building blocks — For, ForRange, Reduce, Sort — in the "specify tasks,
// not threads" style of oneTBB, implemented directly on the runtime in
// internal/rt. Where the aomplib facade mirrors OpenMP (regions and
// directives woven around methods), this package is for call sites that
// just want a loop, a reduction or a sort run in parallel, with the
// decomposition, scheduling and joining handled by the library.
//
// Everything here executes on the existing runtime machinery: hot teams
// (leased, admission-controlled worker pools — a parallel.For at top level
// is a warm region entry with zero steady-state allocations), the
// work-stealing task deques (nested calls decompose onto the current team
// instead of spawning a new one), the loop schedules of internal/sched,
// and the obs emit points (every construct
// emits the same region/work/task events the woven aspects do, so Chrome
// traces show generic loops alongside @For loops).
//
// Determinism: Reduce decomposes the input by a grain that depends only on
// the input length (or WithGrain), never on the team width or on timing,
// and combines the per-chunk partials in a fixed tree order. For a
// given input and grain the exact sequence of combine calls is therefore
// identical at every width — including width 1 — which makes
// floating-point results reproducible run-to-run and width-to-width.
//
// Composability: any entry point called from inside an existing parallel
// region (a woven @For body, a task, another algorithm's leaf) does not
// open a nested region; it decomposes into stealable tasks on the current
// team, the oneTBB notion of composable nested parallelism.
package parallel

import (
	"fmt"
	"reflect"
	"slices"
	"sync"

	"aomplib/internal/rt"
	"aomplib/internal/sched"
)

// Schedule selects how loop iterations are distributed over the team; it
// aliases the runtime's schedule kind, so facade and generic layers accept
// the same values.
type Schedule = sched.Kind

// The loop schedules accepted by WithSchedule. They are the same policies
// the woven @For construct and the jgfbench -schedule flag accept.
const (
	// Static divides the space into one contiguous block per worker; the
	// default, and the only choice with zero shared scheduling state.
	Static Schedule = sched.StaticBlock
	// Cyclic deals iterations round-robin (chunk-sized hands) across the
	// team; balances regular-but-heterogeneous iterations.
	Cyclic Schedule = sched.StaticCyclic
	// Dynamic hands out claims on a shared atomic cursor: four grains while
	// more than four per worker remain, then one, so the tail balances.
	Dynamic Schedule = sched.Dynamic
	// Guided hands out exponentially shrinking claims — large early, one
	// grain at the tail — trading contention against tail imbalance.
	Guided Schedule = sched.Guided
	// Adaptive re-tunes the schedule kind and chunk on every encounter of
	// the same loop: the first from the loop's shape (static below 64
	// iterations per worker, guided otherwise), later ones from the
	// imbalance the previous encounter measured — the feedback-driven
	// choice for loops executed repeatedly (solvers, per-frame work, server
	// request loops). State is keyed by the body function's code location
	// and lives on the hot team, so distinct call sites learn independently
	// and the learning survives region entries. Unlike the other kinds its
	// dispatch is not allocation-free (the stable key costs a small
	// interning lookup); per-call overhead is still far below one region
	// entry.
	Adaptive Schedule = sched.Adaptive
)

// config carries the resolved options of one algorithm call.
type config struct {
	threads int
	sched   Schedule
	grain   int
}

// Opt configures one algorithm invocation; construct with WithThreads,
// WithSchedule or WithGrain.
type Opt func(*config)

// WithThreads caps the team width for this call. Zero or negative means
// GOMAXPROCS; the width is additionally clamped so no worker is guaranteed
// empty.
func WithThreads(n int) Opt { return func(c *config) { c.threads = n } }

// WithSchedule selects the loop schedule for this call (default Static).
// Reduce schedules over the chunk space, so dynamic kinds balance
// chunk-level skew without changing the deterministic combine shape. It
// panics on a kind that is not a schedule, and on the case-specific kind,
// which needs a ScheduleFunc this package has no option for.
func WithSchedule(s Schedule) Opt {
	if s == sched.Custom || !slices.Contains(sched.Kinds(), s) {
		valid := slices.DeleteFunc(sched.Kinds(), func(k Schedule) bool { return k == sched.Custom })
		panic(fmt.Sprintf("parallel: WithSchedule(%v): valid schedules are %v", s, valid))
	}
	return func(c *config) { c.sched = s }
}

// WithGrain sets the decomposition grain: the chunk of the Dynamic and
// Guided loop schedules, the per-partial chunk length of Reduce, the
// task grain of nested For calls, and the serial cutoff of Sort.
// For Dynamic and Guided loops it is the balance unit and the least a
// worker takes at a time, not a bound on the range a ForRange body
// receives: the body runs once per claim, up to 4n indices under Dynamic.
// Zero or negative means an automatic grain derived from the input length
// alone (width-independent, preserving determinism).
func WithGrain(n int) Opt { return func(c *config) { c.grain = n } }

// apply folds opts over the default configuration. The result escapes
// (option funcs are opaque), so allocation-sensitive entry points use
// applyInto with a pooled destination instead.
func apply(opts []Opt) config {
	c := config{sched: Static}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// applyInto folds opts into a caller-owned (pooled) config, keeping the
// hot For/Reduce dispatch paths allocation-free: escape analysis
// pins a stack config passed to opaque option funcs to the heap, so the
// destination lives inside the recycled entry struct instead.
func applyInto(c *config, opts []Opt) {
	*c = config{sched: Static}
	for _, o := range opts {
		o(c)
	}
}

// width resolves the team width for an n-iteration call: the WithThreads
// value or the library default, clamped to [1, n] so a width larger than
// the input never leases workers with nothing to do (width > len inputs
// are legal, just clamped).
func (c config) width(n int) int {
	w := c.threads
	if w < 1 {
		w = rt.DefaultThreads()
	}
	if n > 0 && w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// loopKey is the adaptive-state identity of one loop: the code pointer of
// its body function. Pooled entry structs are recycled between unrelated
// loops, so the entry pointer — the encounter key for every other schedule
// — would conflate adaptive state; the body's code location is stable
// across calls instead.
// Two closures created at the same source location share a key (they are
// "the same loop" for tuning purposes); distinct call sites never collide.
// A function inlined into several callers compiles its closures once per
// inlined copy, so each copy is a call site of its own. Comparable by
// value, so a freshly built key finds the state an earlier call
// registered.
type loopKey struct{ pc uintptr }

// stableKey builds the adaptive-state key for a loop body fn (any func
// value). Boxing fn and the returned key allocates a few words — the
// documented cost of the Adaptive dispatch path.
func stableKey(fn any) any {
	return loopKey{pc: reflect.ValueOf(fn).Pointer()}
}

// entryPools caches one sync.Pool of region-argument structs per
// instantiated entry type, so generic entry points stay allocation-free in
// steady state: the first Reduce[float64] call creates the pool for its
// entry type, every later call recycles. Keyed by reflect.Type of the
// *pointer* type, which interns without allocating.
var entryPools sync.Map

// poolOf returns the shared pool for entry type E.
func poolOf[E any]() *sync.Pool {
	k := reflect.TypeOf((*E)(nil))
	if p, ok := entryPools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := entryPools.LoadOrStore(k, &sync.Pool{New: func() any { return new(E) }})
	return p.(*sync.Pool)
}
