package weaver

import (
	"sync"
	"sync/atomic"

	"aomplib/internal/rt"
)

// Call is the reified invocation flowing through an advice chain. Around
// advice may inspect and rewrite it before proceeding — the for
// work-sharing aspects rewrite Lo/Hi/Step exactly as the paper's advice
// "gathers the first two method parameters ... and calls the original
// method with thread specific parameters" (Fig. 10).
type Call struct {
	// JP is the joinpoint being invoked.
	JP *Joinpoint
	// Lo, Hi, Step carry the iteration space of ForKind methods.
	Lo, Hi, Step int
	// Key carries the key of KeyedKind methods (e.g. an iteration index
	// for @Ordered, or a particle index for per-key locking).
	Key int
	// Ret carries the result of ValueKind methods.
	Ret any
	// Worker is the team worker executing the call, nil outside parallel
	// regions. The region advice sets it for each team member; for calls
	// made within a region's dynamic extent it is resolved from
	// goroutine-local state on entry.
	Worker *rt.Worker
}

// HandlerFunc is one stage of an advice chain; the innermost handler is
// the original method body.
type HandlerFunc func(*Call)

// callPool recycles Call objects so the woven dispatch hot path allocates
// nothing: the reified invocation would otherwise escape to the heap on
// every call, because the composed chain is opaque to escape analysis.
var callPool = sync.Pool{New: func() any { return new(Call) }}

// GetCall returns a zeroed Call from the pool. Advice that re-dispatches
// copies of a call (work-sharing sub-ranges, per-worker region copies) uses
// the pool too, keeping those paths allocation-free at steady state.
func GetCall() *Call {
	return callPool.Get().(*Call)
}

// PutCall recycles c. The caller must not retain c afterwards; any advice
// that needs call state beyond the invocation copies the Call by value
// (tasks and futures do exactly that).
func PutCall(c *Call) {
	*c = Call{}
	callPool.Put(c)
}

// chain is an immutable woven pipeline, swapped atomically so weaving and
// unweaving are safe while calls are in flight. It carries only what a call
// reads; the advice list it was composed from lives on its Method.
type chain struct {
	handler HandlerFunc
	// direct marks a chain with no stage — never woven, unwoven, no
	// pointcut matched, or every matched advice disabled. Entry points
	// then call the registered body itself: no Call is reified, so an
	// unplugged method costs one atomic load and a branch over a plain
	// call.
	direct bool
	// needsWorker records whether any advice in the chain wants the
	// current worker resolved.
	needsWorker bool
	// forks records a Forker in the chain: entered outside any region, the
	// chain runs through its program's fork gate.
	forks bool
	// sole is set when a value chain's only stage is a WorkerValuer:
	// ValueProc's entry answers from it. (Behind a pointer: every woven
	// composition allocates a chain, few have one.)
	sole *WorkerValuer
}

type appliedAdvice struct {
	aspect string
	advice Advice
	prec   int // advice.Precedence(), read once when it was matched
	// pointcut is the source form of the matcher that selected the
	// joinpoint, surfaced by Report for -explain tooling.
	pointcut string
	// enabled reports whether the advice is composed into the chain.
	enabled bool
}

// toggle is a per-method SetAdviceEnabled: it outlives the advice it
// restates, so an aspect deployed again, or a method woven again, keeps it.
type toggle struct {
	aspect string
	on     bool
}

// Method is a registered joinpoint together with its body and current
// woven chain. The advice list and toggles are reconfiguration state,
// guarded by the program's lock; a call reads neither.
type Method struct {
	jp      *Joinpoint
	body    HandlerFunc
	current atomic.Pointer[chain]
	// direct is the method's chain with no stage, built once at
	// registration and stored by Unweave and by any composition with no
	// enabled advice.
	direct *chain
	// applied lists the matched advice outermost-first, disabled advice
	// included, for composition and weave reports.
	applied []appliedAdvice
	toggles []toggle
}

// JP returns the method's joinpoint.
func (m *Method) JP() *Joinpoint { return m.jp }

// run reifies one invocation and sends it through the live chain ch. The
// entry points below all share this shape: one atomic chain load, the
// typed body on a direct chain, run otherwise. A forking chain entered
// outside any region runs under its program's fork gate, on the chain
// loaded there: the caller's load may predate a swap the gate has since
// let through.
func (m *Method) run(ch *chain, lo, hi, step, key int) any {
	if ch.forks && rt.Current() == nil {
		g := &m.jp.class.program.gate
		g.RLock()
		defer g.RUnlock()
		ch = m.current.Load()
	}
	call := GetCall()
	call.JP, call.Lo, call.Hi, call.Step, call.Key = m.jp, lo, hi, step, key
	if ch.needsWorker {
		call.Worker = rt.Current()
	}
	ch.handler(call)
	ret := call.Ret
	PutCall(call)
	return ret
}

// runValue is the live branch of ValueProc's entry, out of line so the direct
// path stays a load, a branch and the body call. A sole WorkerValuer answers
// here without a Call — worker lookup, value — and the body stands in outside
// a region, as its reified stage would proceed to it.
//
//go:noinline
func (m *Method) runValue(ch *chain, body func() any) any {
	if ch.sole == nil {
		return m.run(ch, 0, 0, 0, 0)
	}
	if w := rt.Current(); w != nil {
		return (*ch.sole).WorkerValue(w)
	}
	return body()
}

// Proc registers a plain method and returns its woven entry point. The
// returned function replaces direct calls to body in the base program —
// the analogue of AspectJ rewriting call sites (paper Fig. 12).
func (c *Class) Proc(name string, body func()) func() {
	m := c.register(name, ProcKind, func(*Call) { body() })
	return func() {
		if ch := m.current.Load(); ch.direct {
			body()
		} else {
			m.run(ch, 0, 0, 0, 0)
		}
	}
}

// ForProc registers a for method (M2FOR refactor): the loop iteration
// space is exposed in the first three int parameters so pluggable aspects
// can rewrite the range.
func (c *Class) ForProc(name string, body func(lo, hi, step int)) func(lo, hi, step int) {
	m := c.register(name, ForKind, func(call *Call) { body(call.Lo, call.Hi, call.Step) })
	return func(lo, hi, step int) {
		if ch := m.current.Load(); ch.direct {
			body(lo, hi, step)
		} else {
			m.run(ch, lo, hi, step, 0)
		}
	}
}

// KeyedProc registers a method exposing a single int key.
func (c *Class) KeyedProc(name string, body func(key int)) func(key int) {
	m := c.register(name, KeyedKind, func(call *Call) { body(call.Key) })
	return func(key int) {
		if ch := m.current.Load(); ch.direct {
			body(key)
		} else {
			m.run(ch, 0, 0, 0, key)
		}
	}
}

// ValueProc registers a value-returning method. When woven with
// @Single/@Master the value is broadcast to the team; sequentially it is
// simply the body's result.
func (c *Class) ValueProc(name string, body func() any) func() any {
	m := c.register(name, ValueKind, func(call *Call) { call.Ret = body() })
	return func() any {
		if ch := m.current.Load(); !ch.direct {
			return m.runValue(ch, body)
		}
		return body()
	}
}

// FutureProc registers a value-returning method invoked through a Future.
// Unwoven (or without a @FutureTask aspect) the future is resolved
// synchronously, preserving sequential semantics; woven with @FutureTask
// the body runs asynchronously and the future's getter is the
// synchronisation point (@FutureResult). The joinpoint is a value method
// whose result is lifted into a Future.
func (c *Class) FutureProc(name string, body func() any) func() *rt.Future {
	value := c.ValueProc(name, body)
	return func() *rt.Future {
		ret := value()
		if f, ok := ret.(*rt.Future); ok {
			return f
		}
		return rt.ResolvedFuture(ret)
	}
}
