package weaver

import (
	"fmt"
	"sort"
	"sync"
)

// Program is a base program's joinpoint registry plus its deployed
// aspects. It plays the role of the AspectJ build: classes and methods are
// registered as the base program initialises, aspects are added with Use
// (or removed), and Weave/Unweave correspond to building with or without
// the aspect modules — "sequential semantics and incremental development
// are intrinsically supported since aspects can be (un)plugged to/from a
// given base program at any time".
//
// Once Weave has run, the program stays woven incrementally: Use,
// RemoveAspect, Annotate and late method registration rebuild only the
// affected methods' chains (candidates found through the pointcut hint
// index), each swapped atomically while calls are in flight.
type Program struct {
	name string

	mu      sync.Mutex
	classes map[string]*Class
	methods []*Method

	// Lookup indexes, maintained at registration/annotation time: byFQN
	// serves Method/Annotate in O(1); the bucket maps serve the pointcut
	// hint index (Hints → candidate methods) for incremental re-weaves.
	byFQN   map[string]*Method
	byClass map[string][]*Method
	byName  map[string][]*Method
	byAnno  map[string][]*Method

	aspects []Aspect

	// gates holds the per-(aspect, fqn) enable words; aspectOff records
	// aspect-wide defaults so gates created by later weaves inherit them.
	gates     map[gateKey]*gate
	aspectOff map[string]bool

	// woven flips to true at the first Weave and back to false at Unweave;
	// while true, registry mutations re-weave affected methods in place.
	woven bool
	// rebuilds counts chain compositions, pinning incrementality in tests.
	rebuilds uint64
}

// NewProgram creates an empty program registry.
func NewProgram(name string) *Program {
	return &Program{
		name:      name,
		classes:   make(map[string]*Class),
		byFQN:     make(map[string]*Method),
		byClass:   make(map[string][]*Method),
		byName:    make(map[string][]*Method),
		byAnno:    make(map[string][]*Method),
		gates:     make(map[gateKey]*gate),
		aspectOff: make(map[string]bool),
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
	p.mu.Lock()
	defer p.mu.Unlock()
	fqn := c.name + "." + name
	if _, dup := p.byFQN[fqn]; dup {
		panic(fmt.Sprintf("weaver: method %s registered twice", fqn))
	}
	m := &Method{jp: &Joinpoint{class: c, name: name, kind: kind}, body: body}
	m.reset()
	p.methods = append(p.methods, m)
	p.byFQN[fqn] = m
	p.byClass[c.name] = append(p.byClass[c.name], m)
	p.byName[name] = append(p.byName[name], m)
	if p.woven {
		// Late registration into a woven program: the new method joins the
		// weave immediately, like a class loaded into a woven application.
		if err := p.reweaveLocked(m); err != nil {
			panic(fmt.Sprintf("weaver: weaving late-registered method %s: %v", fqn, err))
		}
	}
	return m
}

// Annotate attaches annotations to the named method ("Class.method").
// Like Java annotations these are inert metadata until an aspect —
// typically the core package's annotation aspects (paper Fig. 5) —
// translates them into advice at weave time. On a woven program the
// method's chain is rebuilt immediately.
func (p *Program) Annotate(fqn string, annotations ...Annotation) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.byFQN[fqn]
	if m == nil {
		return fmt.Errorf("weaver: Annotate: unknown method %q", fqn)
	}
	m.jp.annotations = append(m.jp.annotations, annotations...)
	for _, a := range annotations {
		n := a.AnnotationName()
		bucket := p.byAnno[n]
		present := false
		for _, bm := range bucket {
			if bm == m {
				present = true
				break
			}
		}
		if !present {
			p.byAnno[n] = append(bucket, m)
		}
	}
	if p.woven {
		if err := p.reweaveLocked(m); err != nil {
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

// candidatesLocked returns the methods an aspect's bindings could match,
// found through the hint index. Matchers that cannot provide hints (or
// whose hints say All) widen the candidate set to every method — hints are
// a superset contract, so evaluating the real matcher on the candidates
// never misses a joinpoint.
func (p *Program) candidatesLocked(aspects []Aspect) []*Method {
	seen := make(map[*Method]bool)
	var out []*Method
	add := func(ms []*Method) {
		for _, m := range ms {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	for _, a := range aspects {
		for _, b := range a.Bindings() {
			h, ok := b.Matcher.(Hinter)
			if !ok {
				return append([]*Method(nil), p.methods...)
			}
			hints := h.Hints()
			if hints.All {
				return append([]*Method(nil), p.methods...)
			}
			if len(hints.Classes)+len(hints.Methods)+len(hints.Annotations) == 0 {
				// An impossible match set; widen out of caution.
				return append([]*Method(nil), p.methods...)
			}
			for _, cl := range hints.Classes {
				add(p.byClass[cl])
			}
			for _, mn := range hints.Methods {
				add(p.byName[mn])
			}
			for _, an := range hints.Annotations {
				add(p.byAnno[an])
			}
		}
	}
	return out
}

// Use deploys aspect modules. On an unwoven program the change takes
// effect at the next Weave; on a woven program only the methods the new
// aspects' pointcuts can select (per the hint index) are re-woven, each
// chain swapped atomically. A validation failure during an incremental
// deploy panics — the program would otherwise be left half-deployed with
// no error path to the caller.
func (p *Program) Use(aspects ...Aspect) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.aspects = append(p.aspects, aspects...)
	if !p.woven {
		return
	}
	for _, m := range p.candidatesLocked(aspects) {
		if err := p.reweaveLocked(m); err != nil {
			panic(fmt.Sprintf("weaver: incremental Use: %v", err))
		}
	}
}

// RemoveAspect undeploys all aspects with the given name. On a woven
// program only the methods whose current chain contains the aspect's
// advice are re-woven.
func (p *Program) RemoveAspect(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.aspects[:0]
	removed := false
	for _, a := range p.aspects {
		if a.AspectName() != name {
			kept = append(kept, a)
		} else {
			removed = true
		}
	}
	p.aspects = kept
	if !p.woven || !removed {
		return
	}
	for _, m := range p.methods {
		if !chainHasAspect(m.current.Load(), name) {
			continue
		}
		if err := p.reweaveLocked(m); err != nil {
			panic(fmt.Sprintf("weaver: incremental RemoveAspect: %v", err))
		}
	}
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

// gateLocked returns the persistent gate for one aspect on one joinpoint,
// creating it enabled (or disabled, if the aspect was toggled off
// aspect-wide) on first use.
func (p *Program) gateLocked(aspect, fqn string) *gate {
	k := gateKey{aspect: aspect, fqn: fqn}
	g, ok := p.gates[k]
	if !ok {
		g = &gate{}
		g.set(!p.aspectOff[aspect])
		p.gates[k] = g
	}
	return g
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
				gate:     p.gateLocked(a.AspectName(), m.jp.FQN()),
			})
		}
	}
	// Stable sort: outermost (highest precedence) first.
	sort.SliceStable(applied, func(i, j int) bool {
		return applied[i].advice.Precedence() > applied[j].advice.Precedence()
	})
	return applied, nil
}

// composeChain builds the woven pipeline for m. Each stage checks its
// enable word inline (one atomic load + branch) and falls through to the
// next stage when off; stages whose gate is already off at composition
// time are collapsed out entirely, and a chain left with no stage at all
// is direct: entry points bypass it for the registered body. A chain left
// with exactly one stage, a WorkerValuer's, records it for the Call-free
// entry of value methods (Method.runValue).
func composeChain(m *Method, applied []appliedAdvice) *chain {
	ch := &chain{handler: m.body, direct: true, applied: applied}
	for i := len(applied) - 1; i >= 0; i-- { // wrap innermost-first
		ad := applied[i]
		if !ad.gate.on() {
			continue
		}
		if ch.sole = nil; ch.direct && m.jp.kind == ValueKind { // the first live stage: sole so far
			if v, ok := ad.advice.(WorkerValuer); ok {
				ch.sole = &soleValuer{v, ad.gate}
			}
		}
		inner := ch.handler
		wrapped := ad.advice.Wrap(m.jp, inner)
		g := ad.gate
		ch.handler = func(c *Call) {
			if !g.on() {
				inner(c)
				return
			}
			wrapped(c)
		}
		ch.direct = false
		ch.needsWorker = ch.needsWorker || ad.advice.NeedsWorker()
	}
	return ch
}

// reweaveLocked rebuilds one method's chain from the deployed aspects and
// swaps it in atomically.
func (p *Program) reweaveLocked(m *Method) error {
	applied, err := p.matchLocked(m)
	if err != nil {
		return err
	}
	m.current.Store(composeChain(m, applied))
	p.rebuilds++
	return nil
}

// Weave (re)builds every method's advice chain from the deployed aspects.
// Matching advice is ordered by precedence (higher wraps further out;
// ties keep deployment order) and composed around the original body. The
// swap is atomic per method, so in-flight calls complete on the chain they
// started with. After the first Weave the program stays woven: later
// Use/RemoveAspect/Annotate calls re-weave incrementally.
func (p *Program) Weave() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.methods {
		if err := p.reweaveLocked(m); err != nil {
			return err
		}
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
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.methods {
		m.reset()
	}
	p.woven = false
}

// SetAdviceEnabled toggles the named aspect's advice without re-weaving
// the program. With no fqns the toggle is aspect-wide (and sticks as the
// default for methods woven later); otherwise it applies to the named
// "Class.method" joinpoints, which must currently carry the aspect's
// advice. Disabling is effective on the next call through each chain —
// the gate word is flipped first — after which affected chains are
// re-swapped so disabled stages collapse to a direct next-stage call;
// enabling takes effect at that re-swap. Returns an error on unknown
// methods or methods the aspect is not applied to.
func (p *Program) SetAdviceEnabled(aspect string, enabled bool, fqns ...string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var affected []*Method
	if len(fqns) == 0 {
		p.aspectOff[aspect] = !enabled
		for k, g := range p.gates {
			if k.aspect == aspect {
				g.set(enabled)
			}
		}
		for _, m := range p.methods {
			if chainHasAspect(m.current.Load(), aspect) {
				affected = append(affected, m)
			}
		}
	} else {
		// Validate every fqn before flipping any gate, so an error leaves
		// all gates untouched.
		for _, fqn := range fqns {
			m := p.byFQN[fqn]
			if m == nil {
				return fmt.Errorf("weaver: SetAdviceEnabled: unknown method %q", fqn)
			}
			if !chainHasAspect(m.current.Load(), aspect) {
				return fmt.Errorf("weaver: SetAdviceEnabled: aspect %q not applied to %q", aspect, fqn)
			}
			affected = append(affected, m)
		}
		for _, m := range affected {
			p.gateLocked(aspect, m.jp.FQN()).set(enabled)
		}
	}
	for _, m := range affected {
		if err := p.reweaveLocked(m); err != nil {
			return err
		}
	}
	return nil
}

// AdviceEnabled reports the gate state of one aspect on one joinpoint.
// (aspect, method) pairs never toggled report true, since gates default
// to enabled.
func (p *Program) AdviceEnabled(aspect, fqn string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if g, ok := p.gates[gateKey{aspect: aspect, fqn: fqn}]; ok {
		return g.on()
	}
	return !p.aspectOff[aspect]
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
// applied which advice, through which pointcut, and whether its gate is
// currently enabled.
type AdviceInfo struct {
	// Aspect is the deploying aspect's name.
	Aspect string
	// Advice is the advice name (e.g. "parallel", "for(runtime)").
	Advice string
	// Pointcut is the source form of the matcher that selected the
	// joinpoint.
	Pointcut string
	// Enabled is the advice gate's current state.
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
				Enabled:  ap.gate.on(),
			})
		}
		out = append(out, wm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FQN < out[j].FQN })
	return out
}
