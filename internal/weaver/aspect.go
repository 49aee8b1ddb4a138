package weaver

import (
	"aomplib/internal/pointcut"
	"aomplib/internal/rt"
)

// Matcher selects joinpoints. *pointcut.Pointcut is the usual
// implementation; the annotation style uses exact matchers so that
// per-method annotation parameters (lock ids, thread counts) bind to
// exactly the annotated method.
type Matcher interface {
	Matches(pointcut.Subject) bool
	String() string
}

// Exact returns a Matcher selecting a single joinpoint by identity.
func Exact(jp *Joinpoint) Matcher { return exactMatcher{jp} }

type exactMatcher struct{ jp *Joinpoint }

func (m exactMatcher) Matches(s pointcut.Subject) bool {
	j, ok := s.(*Joinpoint)
	return ok && j == m.jp
}
func (m exactMatcher) String() string { return "exact(" + m.jp.FQN() + ")" }

// Advice is one parallelism mechanism applicable to a joinpoint. Each
// AOmpLib abstraction (parallel region, for, critical, ...) is an Advice
// implementation in the core package; applications may supply their own —
// "the library can be easily extended/changed to handle application
// specific mechanisms".
type Advice interface {
	// AdviceName identifies the mechanism in weave reports (e.g. "parallel",
	// "for(staticCyclic)").
	AdviceName() string
	// Precedence orders advice on a joinpoint: higher precedence wraps
	// further out. The core package defines the canonical ordering
	// (parallel region outermost ... thread-local innermost).
	Precedence() int
	// NeedsWorker reports whether the advice must know the current team
	// worker; only then does the woven method pay for the goroutine-local
	// lookup.
	NeedsWorker() bool
	// Wrap builds this advice's stage around next for joinpoint jp.
	Wrap(jp *Joinpoint, next HandlerFunc) HandlerFunc
}

// WorkerValuer is an optional Advice extension for value advice whose whole
// effect is "inside a region answer with a per-worker value, outside it
// proceed" (@ThreadLocalField). When such an advice is the only enabled stage
// of a ValueKind chain, the entry point answers rt.Current() →
// WorkerValue(w) without reifying a Call; stacked with other advice its
// Wrap stage runs instead, so Wrap must call the same WorkerValue.
type WorkerValuer interface {
	WorkerValue(w *rt.Worker) any
}

// Forker is an optional Advice extension for advice that forks a team of
// workers around the rest of its chain (the parallel region). A top-level
// entry of a chain carrying one runs against a single weave of its program
// (see Program).
type Forker interface {
	Forks() bool
}

// Binding attaches one Advice to the joinpoints selected by a Matcher.
type Binding struct {
	Matcher Matcher
	Advice  Advice
}

// Aspect is a deployable module of bindings — the analogue of one AspectJ
// aspect such as the paper's ParallelLinpack (Fig. 7).
type Aspect interface {
	// AspectName identifies the module for reports and removal.
	AspectName() string
	// Bindings returns the module's pointcut→advice bindings. A weaving
	// verb (Weave, Use on a woven program, Annotate, late registration)
	// calls it once per aspect it matches and shares the advice values
	// among every method that verb matches; each verb calls it afresh, so
	// an aspect configured between verbs weaves as configured. State that
	// belongs to one joinpoint is made in Advice.Wrap, which runs once per
	// method at every composition, never in Bindings.
	Bindings() []Binding
}

// Validator is an optional Aspect extension: aspects that require certain
// joinpoint kinds (e.g. @For requires a for method) implement it to fail
// weaving loudly instead of misbehaving at run time.
type Validator interface {
	// ValidateJP reports an error if the advice cannot apply to jp.
	ValidateJP(jp *Joinpoint) error
}

// SimpleAspect is a convenience Aspect for ad-hoc and case-specific
// modules.
type SimpleAspect struct {
	Name string
	Bind []Binding
}

// AspectName implements Aspect.
func (a *SimpleAspect) AspectName() string { return a.Name }

// Bindings implements Aspect.
func (a *SimpleAspect) Bindings() []Binding { return a.Bind }
