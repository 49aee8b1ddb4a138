package weaver

import (
	"fmt"
	"sort"
	"sync"

	"aomplib/internal/rt"
)

// Program is a base program's joinpoint registry plus its deployed
// aspects. It plays the role of the AspectJ build: classes and methods are
// registered as the base program initialises, aspects are added with Use
// (or removed), and Weave/Unweave correspond to building with or without
// the aspect modules — "sequential semantics and incremental development
// are intrinsically supported since aspects can be (un)plugged to/from a
// given base program at any time".
//
// Every reconfiguration is a chain swap: once Weave has run, the program
// stays woven, and Use, RemoveAspect, SetAdviceEnabled, Annotate and late
// method registration rebuild exactly the chains they affect — all of them
// or, when an advice rejects a joinpoint, none. A call runs on the chain
// it loaded; calls that load a method's chain after the reconfiguration
// returns see the new weave. A top-level parallel region runs against one
// weave: a reconfiguration issued outside any region waits for the
// program's regions in flight, so its latency is bounded by the longest of
// them; one issued from inside a region takes effect at once.
type Program struct {
	name string

	mu      sync.Mutex
	classes map[string]*Class
	methods []*Method
	byFQN   map[string]*Method
	aspects []Aspect

	// enabled records per-(aspect, fqn) toggles; aspectOff the aspect-wide
	// default for pairs without one. Both are inputs to composition.
	enabled   map[adviceKey]bool
	aspectOff map[string]bool

	// woven flips to true at the first Weave and back to false at Unweave;
	// while true, registry mutations re-weave affected methods in place.
	woven bool
	// rebuilds counts chain compositions, pinning incrementality in tests.
	rebuilds uint64

	// gate makes each top-level region run against one weave: team-mates
	// load the chains of the methods they call separately, and a swap
	// between two loads could hand one worker a @For share and another the
	// whole loop. Top-level regions read-lock it (Method.run),
	// reconfigurations write-lock it (lock).
	gate sync.RWMutex
}

// adviceKey identifies one aspect's advice on one joinpoint.
type adviceKey struct{ aspect, fqn string }

// NewProgram creates an empty program registry.
func NewProgram(name string) *Program {
	return &Program{
		name:      name,
		classes:   make(map[string]*Class),
		byFQN:     make(map[string]*Method),
		enabled:   make(map[adviceKey]bool),
		aspectOff: make(map[string]bool),
	}
}

// lock takes the program's lock for a reconfiguration. Issued outside any
// region it first write-locks the fork gate, so the swap lands between
// top-level regions. Issued from inside a region it does not wait: the
// region it runs in may be one the gate would wait for. The gate is taken
// before p.mu, never under it, so a region that reads or reconfigures its
// program while a swap waits for it is not blocked behind that swap.
func (p *Program) lock() (gated bool) {
	if gated = rt.Current() == nil; gated {
		p.gate.Lock()
	}
	p.mu.Lock()
	return gated
}

// unlock undoes lock.
func (p *Program) unlock(gated bool) {
	p.mu.Unlock()
	if gated {
		p.gate.Unlock()
	}
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// ClassOpt configures a Class at creation.
type ClassOpt func(*Class)

// Implements declares interfaces the class implements; pointcuts with the
// '+' operator on an interface name select its implementers.
func Implements(interfaces ...string) ClassOpt {
	return func(c *Class) { c.implements = append(c.implements, interfaces...) }
}

// Extends declares the superclass; pointcuts on the superclass with '+'
// select subclasses, so bindings are "retained over the class hierarchy".
func Extends(parent *Class) ClassOpt {
	return func(c *Class) { c.extends = parent }
}

// Class registers (or retrieves) a class scope. Options are applied only
// on first creation; re-declaring an existing class with options panics,
// as that always indicates conflicting registrations.
func (p *Program) Class(name string, opts ...ClassOpt) *Class {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.classes[name]; ok {
		if len(opts) > 0 {
			panic(fmt.Sprintf("weaver: class %q re-declared with options", name))
		}
		return c
	}
	c := &Class{program: p, name: name}
	for _, o := range opts {
		o(c)
	}
	p.classes[name] = c
	return c
}

func (c *Class) register(name string, kind Kind, body HandlerFunc) *Method {
	p := c.program
	defer p.unlock(p.lock())
	fqn := c.name + "." + name
	if _, dup := p.byFQN[fqn]; dup {
		panic(fmt.Sprintf("weaver: method %s registered twice", fqn))
	}
	m := &Method{jp: &Joinpoint{class: c, name: name, kind: kind}, body: body}
	m.reset()
	if p.woven {
		// Late registration into a woven program: the new method joins the
		// weave immediately, like a class loaded into a woven application,
		// and is not registered if an advice rejects it.
		if err := p.reweaveLocked([]*Method{m}); err != nil {
			panic(fmt.Sprintf("weaver: weaving late-registered method %s: %v", fqn, err))
		}
	}
	p.methods = append(p.methods, m)
	p.byFQN[fqn] = m
	return m
}

// Annotate attaches annotations to the named method ("Class.method").
// Like Java annotations these are inert metadata until an aspect —
// typically the core package's annotation aspects (paper Fig. 5) —
// translates them into advice at weave time. On a woven program the
// method's chain is rebuilt immediately; if an advice rejects the annotated
// method, the annotations are not attached and the chain stays as it was.
func (p *Program) Annotate(fqn string, annotations ...Annotation) error {
	defer p.unlock(p.lock())
	m := p.byFQN[fqn]
	if m == nil {
		return fmt.Errorf("weaver: Annotate: unknown method %q", fqn)
	}
	prev := m.jp.annotations
	m.jp.annotations = append(prev, annotations...)
	if p.woven {
		if err := p.reweaveLocked([]*Method{m}); err != nil {
			m.jp.annotations = prev
			return err
		}
	}
	return nil
}

// MustAnnotate is Annotate that panics on error, for declaration blocks.
func (p *Program) MustAnnotate(fqn string, annotations ...Annotation) {
	if err := p.Annotate(fqn, annotations...); err != nil {
		panic(err)
	}
}

// Method returns the registered method named "Class.method", or nil.
func (p *Program) Method(fqn string) *Method {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.byFQN[fqn]
}

// Joinpoints returns all registered joinpoints (weave tooling).
func (p *Program) Joinpoints() []*Joinpoint {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Joinpoint, len(p.methods))
	for i, m := range p.methods {
		out[i] = m.jp
	}
	return out
}

// Use deploys aspect modules. On an unwoven program the change takes
// effect at the next Weave; on a woven program exactly the methods some
// binding of the new aspects matches are re-woven. If an advice rejects one
// of them, Use undeploys the new aspects, leaves every chain as it was and
// panics — there is no error path to the caller.
func (p *Program) Use(aspects ...Aspect) {
	defer p.unlock(p.lock())
	n := len(p.aspects)
	p.aspects = append(p.aspects, aspects...)
	if !p.woven {
		return
	}
	var affected []*Method
	for _, m := range p.methods {
		if matchesAny(aspects, m.jp) {
			affected = append(affected, m)
		}
	}
	if err := p.reweaveLocked(affected); err != nil {
		p.aspects = p.aspects[:n]
		panic(fmt.Sprintf("weaver: incremental Use: %v", err))
	}
}

func matchesAny(aspects []Aspect, jp *Joinpoint) bool {
	for _, a := range aspects {
		for _, b := range a.Bindings() {
			if b.Matcher.Matches(jp) {
				return true
			}
		}
	}
	return false
}

// RemoveAspect undeploys all aspects with the given name. On a woven
// program only the methods whose current chain contains the aspect's
// advice are re-woven.
func (p *Program) RemoveAspect(name string) {
	defer p.unlock(p.lock())
	prev := p.aspects
	p.aspects = nil
	for _, a := range prev {
		if a.AspectName() != name {
			p.aspects = append(p.aspects, a)
		}
	}
	if !p.woven || len(p.aspects) == len(prev) {
		return
	}
	if err := p.reweaveLocked(p.carryingLocked(name)); err != nil {
		p.aspects = prev
		panic(fmt.Sprintf("weaver: incremental RemoveAspect: %v", err))
	}
}

// carryingLocked returns the methods whose current chain carries the
// aspect's advice.
func (p *Program) carryingLocked(aspect string) []*Method {
	var out []*Method
	for _, m := range p.methods {
		if chainHasAspect(m.current.Load(), aspect) {
			out = append(out, m)
		}
	}
	return out
}

func chainHasAspect(ch *chain, name string) bool {
	for _, ad := range ch.applied {
		if ad.aspect == name {
			return true
		}
	}
	return false
}

// Aspects returns the names of deployed aspects in deployment order.
func (p *Program) Aspects() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, len(p.aspects))
	for i, a := range p.aspects {
		names[i] = a.AspectName()
	}
	return names
}

// adviceEnabledLocked reports one aspect's enable state on one joinpoint:
// its per-method toggle if it has one, else the aspect-wide default.
func (p *Program) adviceEnabledLocked(aspect, fqn string) bool {
	if on, ok := p.enabled[adviceKey{aspect, fqn}]; ok {
		return on
	}
	return !p.aspectOff[aspect]
}

// matchLocked evaluates every deployed aspect against one method and
// returns the matching advice, outermost (highest precedence) first.
func (p *Program) matchLocked(m *Method) ([]appliedAdvice, error) {
	var applied []appliedAdvice
	for _, a := range p.aspects {
		for _, b := range a.Bindings() {
			if !b.Matcher.Matches(m.jp) {
				continue
			}
			if v, ok := b.Advice.(Validator); ok {
				if err := v.ValidateJP(m.jp); err != nil {
					return nil, fmt.Errorf("weaver: aspect %q: %w", a.AspectName(), err)
				}
			}
			applied = append(applied, appliedAdvice{
				aspect:   a.AspectName(),
				advice:   b.Advice,
				pointcut: b.Matcher.String(),
				enabled:  p.adviceEnabledLocked(a.AspectName(), m.jp.FQN()),
			})
		}
	}
	// Stable sort: outermost (highest precedence) first.
	sort.SliceStable(applied, func(i, j int) bool {
		return applied[i].advice.Precedence() > applied[j].advice.Precedence()
	})
	return applied, nil
}

// composeChain builds the woven pipeline for m from its enabled advice;
// disabled advice is left out and stays listed in applied for reports. A
// chain with no stage is direct: entry points bypass it for the registered
// body. A chain whose one stage is a WorkerValuer's records it for the
// Call-free entry of value methods (Method.runValue).
func composeChain(m *Method, applied []appliedAdvice) *chain {
	ch := &chain{handler: m.body, direct: true, applied: applied}
	for i := len(applied) - 1; i >= 0; i-- { // wrap innermost-first
		ad := applied[i]
		if !ad.enabled {
			continue
		}
		if ch.sole = nil; ch.direct && m.jp.kind == ValueKind { // the first stage: sole so far
			if v, ok := ad.advice.(WorkerValuer); ok {
				ch.sole = &v
			}
		}
		ch.handler = ad.advice.Wrap(m.jp, ch.handler)
		ch.direct = false
		ch.needsWorker = ch.needsWorker || ad.advice.NeedsWorker()
		if f, ok := ad.advice.(Forker); ok && f.Forks() {
			ch.forks = true
		}
	}
	return ch
}

// reweaveLocked is the one re-weave routine: it matches and validates every
// method in ms, then composes their chains, then swaps them in. A
// validation failure returns before the first swap, so it changes nothing.
func (p *Program) reweaveLocked(ms []*Method) error {
	applied := make([][]appliedAdvice, len(ms))
	for i, m := range ms {
		var err error
		if applied[i], err = p.matchLocked(m); err != nil {
			return err
		}
	}
	chains := make([]*chain, len(ms))
	for i, m := range ms {
		chains[i] = composeChain(m, applied[i])
	}
	for i, m := range ms {
		m.current.Store(chains[i])
	}
	p.rebuilds += uint64(len(ms))
	return nil
}

// Weave (re)builds every method's advice chain from the deployed aspects.
// Matching advice is ordered by precedence (higher wraps further out;
// ties keep deployment order) and composed around the original body. The
// swap is atomic per method, so in-flight calls complete on the chain they
// started with. An error leaves every chain, and whether the program is
// woven, as it was. After the first Weave the program stays woven: later
// reconfigurations re-weave incrementally.
func (p *Program) Weave() error {
	defer p.unlock(p.lock())
	if err := p.reweaveLocked(p.methods); err != nil {
		return err
	}
	p.woven = true
	return nil
}

// MustWeave is Weave that panics on error.
func (p *Program) MustWeave() {
	if err := p.Weave(); err != nil {
		panic(err)
	}
}

// Unweave restores every method to its unadvised body: the program runs
// with its original sequential semantics, and incremental re-weaving stops
// until the next Weave.
func (p *Program) Unweave() {
	defer p.unlock(p.lock())
	for _, m := range p.methods {
		m.reset()
	}
	p.woven = false
}

// SetAdviceEnabled toggles the named aspect's advice without undeploying
// it. With no fqns the toggle is aspect-wide (and sticks as the default for
// methods woven later); otherwise it applies to the named "Class.method"
// joinpoints, which must currently carry the aspect's advice. The affected
// chains are recomposed with disabled advice left out and swapped in: calls
// that load a method's chain after SetAdviceEnabled returns see the toggle,
// a call already inside the old chain finishes on it. Returns an error on
// unknown methods or methods the aspect is not applied to, before any
// toggle is recorded.
func (p *Program) SetAdviceEnabled(aspect string, enabled bool, fqns ...string) error {
	defer p.unlock(p.lock())
	if len(fqns) == 0 {
		p.aspectOff[aspect] = !enabled
		for k := range p.enabled {
			if k.aspect == aspect {
				delete(p.enabled, k)
			}
		}
		return p.reweaveLocked(p.carryingLocked(aspect))
	}
	affected := make([]*Method, len(fqns))
	for i, fqn := range fqns {
		m := p.byFQN[fqn]
		if m == nil {
			return fmt.Errorf("weaver: SetAdviceEnabled: unknown method %q", fqn)
		}
		if !chainHasAspect(m.current.Load(), aspect) {
			return fmt.Errorf("weaver: SetAdviceEnabled: aspect %q not applied to %q", aspect, fqn)
		}
		affected[i] = m
	}
	for _, fqn := range fqns {
		p.enabled[adviceKey{aspect, fqn}] = enabled
	}
	return p.reweaveLocked(affected)
}

// AdviceEnabled reports the enable state of one aspect on one joinpoint.
// (aspect, method) pairs never toggled report true unless the aspect was
// disabled aspect-wide.
func (p *Program) AdviceEnabled(aspect, fqn string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.adviceEnabledLocked(aspect, fqn)
}

// ChainRebuilds returns the number of chain compositions performed since
// the program was created — the observable cost of (re)weaving. Tests pin
// incrementality with it: deploying one narrow aspect must bump the count
// by the number of matched methods, not by the registry size.
func (p *Program) ChainRebuilds() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rebuilds
}

// WovenMethod describes one method's weave state for reports.
type WovenMethod struct {
	FQN         string
	Kind        Kind
	Annotations []string
	// Advice lists applied advice outermost-first as "aspect/advice".
	Advice []string
	// Details carries per-advice metadata parallel to Advice.
	Details []AdviceInfo
}

// AdviceInfo is the per-advice detail in a weave report: which aspect
// applied which advice, through which pointcut, and whether it is
// currently enabled.
type AdviceInfo struct {
	// Aspect is the deploying aspect's name.
	Aspect string
	// Advice is the advice name (e.g. "parallel", "for(staticBlock)").
	Advice string
	// Pointcut is the source form of the matcher that selected the
	// joinpoint.
	Pointcut string
	// Enabled reports whether the advice is composed into the chain.
	Enabled bool
}

// Report returns the weave state of every method, sorted by FQN — the
// analogue of AspectJ's weave-info messages, used by cmd/weavedump and the
// Table 2 tooling.
func (p *Program) Report() []WovenMethod {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]WovenMethod, 0, len(p.methods))
	for _, m := range p.methods {
		wm := WovenMethod{FQN: m.jp.FQN(), Kind: m.jp.kind}
		for _, a := range m.jp.annotations {
			wm.Annotations = append(wm.Annotations, a.AnnotationName())
		}
		for _, ap := range m.current.Load().applied {
			wm.Advice = append(wm.Advice, ap.aspect+"/"+ap.advice.AdviceName())
			wm.Details = append(wm.Details, AdviceInfo{
				Aspect:   ap.aspect,
				Advice:   ap.advice.AdviceName(),
				Pointcut: ap.pointcut,
				Enabled:  ap.enabled,
			})
		}
		out = append(out, wm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FQN < out[j].FQN })
	return out
}
