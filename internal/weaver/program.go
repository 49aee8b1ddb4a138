package weaver

import (
	"cmp"
	"fmt"
	"slices"
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
// or, when an advice rejects a joinpoint, none. Each method keeps its
// advice list and toggles under the program lock, and the verbs edit them
// in place: toggles flip enable flags and RemoveAspect filters, matching no
// pointcut; Use matches only the new aspects and inserts their advice;
// Weave, Annotate and late registration match every aspect. A verb calls
// each aspect it matches through Bindings once (bindingsLocked). A
// composition allocates only the chain it swaps in, none when no advice is
// enabled: the method's direct chain, built at registration. A call runs on
// the chain it loaded; calls that load a method's chain after the
// reconfiguration returns see the new weave. A top-level parallel region
// runs against one weave: a reconfiguration issued outside any region
// waits for the program's regions in flight, so its latency is bounded by
// the longest of them; one issued from inside a region takes effect at
// once.
type Program struct {
	name string

	mu      sync.Mutex
	classes map[string]*Class
	methods []*Method
	byFQN   map[string]*Method
	aspects []Aspect

	// aspectOff records aspect-wide disables: the enable state of an
	// aspect's advice on a method with no toggle of its own for it.
	aspectOff map[string]bool

	// woven flips to true at the first Weave and back to false at Unweave;
	// while true, registry mutations re-weave affected methods in place.
	woven bool
	// rebuilds counts chain compositions, pinning incrementality in tests.
	rebuilds uint64
	// Scratch the weaving verbs reuse under the lock: the bindings a verb
	// read (bindingsLocked), and Use's matches, news[ends[i]:ends[i+1]]
	// being the new advice matched on methods[i]. A verb clears what it
	// read before it returns, so the scratch holds no advice.
	binds []bound
	news  []appliedAdvice
	ends  []int

	// gate makes each top-level region run against one weave: team-mates
	// load the chains of the methods they call separately, and a swap
	// between two loads could hand one worker a @For share and another the
	// whole loop. Top-level regions read-lock it (Method.run),
	// reconfigurations write-lock it (lock).
	gate sync.RWMutex
}

// NewProgram creates an empty program registry.
func NewProgram(name string) *Program {
	return &Program{
		name:      name,
		classes:   make(map[string]*Class),
		byFQN:     make(map[string]*Method),
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
	m := &Method{jp: &Joinpoint{class: c, name: name, fqn: fqn, kind: kind}, body: body}
	m.direct = &chain{handler: body, direct: true}
	m.current.Store(m.direct)
	if p.woven {
		// Late registration into a woven program: the new method joins the
		// weave immediately, like a class loaded into a woven application,
		// and is not registered if an advice rejects it.
		binds := p.bindingsLocked(p.aspects)
		defer clear(binds)
		applied, err := p.matchAllLocked(m, binds)
		if err != nil {
			panic(fmt.Sprintf("weaver: weaving late-registered method %s: %v", fqn, err))
		}
		m.applied = applied
		p.recomposeLocked(m)
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
		binds := p.bindingsLocked(p.aspects)
		defer clear(binds)
		applied, err := p.matchAllLocked(m, binds)
		if err != nil {
			m.jp.annotations = prev
			return err
		}
		m.applied = applied
		p.recomposeLocked(m)
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
// effect at the next Weave; on a woven program the new aspects' pointcuts
// are tested once against every registered joinpoint and their advice is
// validated, and only then is each matched method's advice list edited:
// each new advice is inserted at its precedence, after the advice already
// there on ties, and exactly those methods are re-woven. If an advice
// rejects one of them, Use undeploys the new aspects, leaves every list and
// chain as it was and panics — there is no error path to the caller.
func (p *Program) Use(aspects ...Aspect) {
	defer p.unlock(p.lock())
	n := len(p.aspects)
	p.aspects = append(p.aspects, aspects...)
	if !p.woven {
		return
	}
	binds := p.bindingsLocked(aspects)
	defer clear(binds)
	news, ends := p.news[:0], append(p.ends[:0], 0)
	for _, m := range p.methods {
		var err error
		if news, err = p.matchLocked(m, binds, news); err != nil {
			p.aspects = p.aspects[:n]
			clear(news)
			panic(fmt.Sprintf("weaver: incremental Use: %v", err))
		}
		ends = append(ends, len(news))
	}
	for i, m := range p.methods {
		added := news[ends[i]:ends[i+1]]
		for _, ad := range added {
			j := len(m.applied) // the list is sorted: land after every tie
			for j > 0 && m.applied[j-1].prec < ad.prec {
				j--
			}
			m.applied = slices.Insert(m.applied, j, ad)
		}
		if len(added) > 0 {
			p.recomposeLocked(m)
		}
	}
	clear(news)
	p.news, p.ends = news, ends
}

// RemoveAspect undeploys all aspects with the given name. On a woven
// program the aspect's advice is filtered out of each method's list in
// place, and the methods that carried it are re-woven.
func (p *Program) RemoveAspect(name string) {
	defer p.unlock(p.lock())
	n := len(p.aspects)
	p.aspects = slices.DeleteFunc(p.aspects, func(a Aspect) bool { return a.AspectName() == name })
	if !p.woven || len(p.aspects) == n {
		return
	}
	carried := func(ad appliedAdvice) bool { return ad.aspect == name }
	for _, m := range p.methods {
		if slices.ContainsFunc(m.applied, carried) {
			m.applied = slices.DeleteFunc(m.applied, carried)
			p.recomposeLocked(m)
		}
	}
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

// adviceEnabledLocked reports one aspect's enable state on m: its
// per-method toggle if it has one, else the aspect-wide default.
func (p *Program) adviceEnabledLocked(m *Method, aspect string) bool {
	for _, t := range m.toggles {
		if t.aspect == aspect {
			return t.on
		}
	}
	return !p.aspectOff[aspect]
}

// bound is one binding of a deployed aspect as a verb read it.
type bound struct {
	aspect string
	prec   int
	Binding
}

// bindingsLocked calls each aspect's Bindings once, for one verb, which
// matches the result against every method it affects: one advice value
// serves every method it matches (see Aspect).
func (p *Program) bindingsLocked(aspects []Aspect) []bound {
	binds := p.binds[:0]
	for _, a := range aspects {
		name := a.AspectName()
		for _, b := range a.Bindings() {
			binds = append(binds, bound{name, b.Advice.Precedence(), b})
		}
	}
	p.binds = binds
	return binds
}

// matchLocked appends to dst the advice of the bindings whose pointcuts
// match m, validated, in deployment order and with its enable state. It
// edits no method, so a verb runs it over every method it affects before
// it edits the first list.
func (p *Program) matchLocked(m *Method, binds []bound, dst []appliedAdvice) ([]appliedAdvice, error) {
	for _, b := range binds {
		if !b.Matcher.Matches(m.jp) {
			continue
		}
		if v, ok := b.Advice.(Validator); ok {
			if err := v.ValidateJP(m.jp); err != nil {
				return nil, fmt.Errorf("weaver: aspect %q: %w", b.aspect, err)
			}
		}
		dst = append(dst, appliedAdvice{
			aspect:   b.aspect,
			advice:   b.Advice,
			prec:     b.prec,
			pointcut: b.Matcher.String(),
			enabled:  p.adviceEnabledLocked(m, b.aspect),
		})
	}
	return dst, nil
}

// matchAllLocked derives a method's list from scratch: every deployed
// aspect's bindings, matched and validated, in precedence order. Weave,
// Annotate and late registration use it, as their inputs change what
// matches.
func (p *Program) matchAllLocked(m *Method, binds []bound) ([]appliedAdvice, error) {
	applied, err := p.matchLocked(m, binds, nil)
	// Outermost (highest precedence) first; the sort is stable, so ties
	// keep deployment order: earlier deployment stays outside.
	slices.SortStableFunc(applied, func(x, y appliedAdvice) int { return cmp.Compare(y.prec, x.prec) })
	return applied, err
}

// recomposeLocked composes m's chain from the enabled advice of m.applied
// (disabled advice is left out and stays listed for reports), swaps it in
// and counts one rebuild. With no enabled advice the chain is m.direct:
// entry points bypass it for the registered body. A chain whose one stage
// is a WorkerValuer's records it for the Call-free entry of value methods
// (Method.runValue). Composition cannot fail: a verb runs every fallible
// step before its first recomposition, so a rejection changes nothing.
func (p *Program) recomposeLocked(m *Method) {
	ch := m.direct
	for i := len(m.applied) - 1; i >= 0; i-- { // wrap innermost-first
		ad := m.applied[i]
		if !ad.enabled {
			continue
		}
		if ch.direct { // the first stage: sole so far
			ch = &chain{handler: m.body}
			if m.jp.kind == ValueKind {
				if v, ok := ad.advice.(WorkerValuer); ok {
					ch.sole = &v
				}
			}
		} else {
			ch.sole = nil
		}
		ch.handler = ad.advice.Wrap(m.jp, ch.handler)
		ch.needsWorker = ch.needsWorker || ad.advice.NeedsWorker()
		if f, ok := ad.advice.(Forker); ok && f.Forks() {
			ch.forks = true
		}
	}
	m.current.Store(ch)
	p.rebuilds++
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
	binds := p.bindingsLocked(p.aspects)
	defer clear(binds)
	lists := make([][]appliedAdvice, len(p.methods))
	for i, m := range p.methods {
		var err error
		if lists[i], err = p.matchAllLocked(m, binds); err != nil {
			return err
		}
	}
	for i, m := range p.methods {
		m.applied = lists[i]
		p.recomposeLocked(m)
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

// Unweave restores every method to its unadvised body, swapping in the
// direct chain built at its registration and clearing its advice list
// (its toggles stay): the program runs with its original sequential
// semantics, and incremental re-weaving stops until the next Weave.
func (p *Program) Unweave() {
	defer p.unlock(p.lock())
	for _, m := range p.methods {
		m.applied = nil
		m.current.Store(m.direct)
	}
	p.woven = false
}

// SetAdviceEnabled toggles the named aspect's advice without undeploying
// it. With no fqns the toggle is aspect-wide: it clears the aspect's
// per-method toggles and sticks as the default for methods woven later.
// Otherwise it applies to the named "Class.method" joinpoints, which must
// currently carry the aspect's advice (a name given twice counts once), and
// is recorded on each method, where it outlives a RemoveAspect or an
// Unweave. Each affected method's advice list has the aspect's enable flags
// flipped in place — no pointcut is matched and no advice validated — and
// its chain is recomposed, with disabled advice left out, and swapped in:
// calls that load a method's chain after SetAdviceEnabled returns see the
// toggle, a call already inside the old chain finishes on it. Returns an
// error on unknown methods or methods the aspect is not applied to, before
// any toggle is recorded.
func (p *Program) SetAdviceEnabled(aspect string, enabled bool, fqns ...string) error {
	defer p.unlock(p.lock())
	for _, fqn := range fqns {
		m := p.byFQN[fqn]
		if m == nil {
			return fmt.Errorf("weaver: SetAdviceEnabled: unknown method %q", fqn)
		}
		if !slices.ContainsFunc(m.applied, func(ad appliedAdvice) bool { return ad.aspect == aspect }) {
			return fmt.Errorf("weaver: SetAdviceEnabled: aspect %q not applied to %q", aspect, fqn)
		}
	}
	if len(fqns) == 0 {
		p.aspectOff[aspect] = !enabled
		for _, m := range p.methods {
			m.toggles = slices.DeleteFunc(m.toggles, func(t toggle) bool { return t.aspect == aspect })
			if m.restate(aspect, enabled) {
				p.recomposeLocked(m)
			}
		}
		return nil
	}
	for i, fqn := range fqns {
		if slices.Contains(fqns[:i], fqn) {
			continue
		}
		m := p.byFQN[fqn]
		m.toggles = append(slices.DeleteFunc(m.toggles, func(t toggle) bool { return t.aspect == aspect }), toggle{aspect, enabled})
		m.restate(aspect, enabled)
		p.recomposeLocked(m)
	}
	return nil
}

// restate sets the enable flag of the aspect's advice in m's list and
// reports whether the list carries any.
func (m *Method) restate(aspect string, on bool) (carries bool) {
	for i := range m.applied {
		if m.applied[i].aspect == aspect {
			m.applied[i].enabled, carries = on, true
		}
	}
	return carries
}

// AdviceEnabled reports the enable state of one aspect on one joinpoint.
// (aspect, method) pairs never toggled report true unless the aspect was
// disabled aspect-wide.
func (p *Program) AdviceEnabled(aspect, fqn string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m := p.byFQN[fqn]; m != nil {
		return p.adviceEnabledLocked(m, aspect)
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
		for _, ap := range m.applied {
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
	slices.SortFunc(out, func(x, y WovenMethod) int { return cmp.Compare(x.FQN, y.FQN) })
	return out
}
