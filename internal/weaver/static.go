package weaver

import (
	"fmt"
	"reflect"
	"sort"
)

// StaticPlan is a frozen snapshot of a program's weave: every registered
// method with the advice its chain currently applies and each advice's
// gate state. The static-weave backend (cmd/weavegen) embeds a plan
// literal in generated code and checks it against the live program with
// VerifyPlan, so statically woven call paths fail loudly instead of
// silently diverging when the dynamic configuration drifts.
type StaticPlan struct {
	// Program is the program name the plan was taken from.
	Program string
	// Methods lists every registered method sorted by FQN.
	Methods []PlannedMethod
}

// PlannedMethod is one method's weave state inside a StaticPlan.
type PlannedMethod struct {
	// FQN is "Class.method".
	FQN string
	// Kind is the joinpoint's signature kind.
	Kind Kind
	// Direct reports that no advice is live on the method — the dynamic
	// entry point calls the registered body itself, and a generated one
	// binds Method.BodyFunc.
	Direct bool
	// NeedsWorker reports whether any enabled advice resolves the current
	// team worker; generated entry points only then pay the lookup.
	NeedsWorker bool
	// Advice lists applied advice outermost-first.
	Advice []PlannedAdvice
}

// PlannedAdvice identifies one applied advice and its gate state at plan
// time.
type PlannedAdvice struct {
	// Aspect is the deploying aspect's name.
	Aspect string
	// Name is the advice name.
	Name string
	// Enabled is the advice gate's state when the plan was taken.
	Enabled bool
}

// Plan snapshots the program's current weave as a StaticPlan.
func (p *Program) Plan() StaticPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := StaticPlan{Program: p.name}
	for _, m := range p.methods {
		// Gates flip and chains re-swap under p.mu, so the installed chain's
		// own bits are the plan's.
		ch := m.current.Load()
		pm := PlannedMethod{FQN: m.jp.FQN(), Kind: m.jp.kind, Direct: ch.direct, NeedsWorker: ch.needsWorker}
		for _, ad := range ch.applied {
			pm.Advice = append(pm.Advice, PlannedAdvice{
				Aspect:  ad.aspect,
				Name:    ad.advice.AdviceName(),
				Enabled: ad.gate.on(),
			})
		}
		sp.Methods = append(sp.Methods, pm)
	}
	sort.Slice(sp.Methods, func(i, j int) bool { return sp.Methods[i].FQN < sp.Methods[j].FQN })
	return sp
}

// VerifyPlan checks that the program's current weave matches a plan taken
// earlier (typically the literal embedded by cmd/weavegen). A mismatch
// means the static-woven code was generated for a different configuration
// and must be regenerated.
func (p *Program) VerifyPlan(sp StaticPlan) error {
	cur := p.Plan()
	if cur.Program != sp.Program {
		return fmt.Errorf("weaver: static plan is for program %q, live program is %q", sp.Program, cur.Program)
	}
	if len(cur.Methods) != len(sp.Methods) {
		return fmt.Errorf("weaver: static plan has %d methods, live program has %d — regenerate (go generate)",
			len(sp.Methods), len(cur.Methods))
	}
	for i := range cur.Methods {
		if !reflect.DeepEqual(cur.Methods[i], sp.Methods[i]) {
			return fmt.Errorf("weaver: static plan drift at %s: plan %+v, live %+v — regenerate (go generate)",
				sp.Methods[i].FQN, sp.Methods[i], cur.Methods[i])
		}
	}
	return nil
}

// FrozenHandler composes the named method's currently enabled advice into
// a handler with no gate loads: the chain a statically woven entry point
// dispatches through. Unlike the live chain it never changes — later
// toggles and re-weaves do not affect it — which is exactly the
// frozen-configuration contract the static backend trades
// reconfigurability for.
// The second result is false if the method is unknown.
func (p *Program) FrozenHandler(fqn string) (HandlerFunc, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.byFQN[fqn]
	if m == nil {
		return nil, false
	}
	ch := m.current.Load()
	h := m.body
	for i := len(ch.applied) - 1; i >= 0; i-- { // wrap innermost-first
		ad := ch.applied[i]
		if !ad.gate.on() {
			continue
		}
		h = ad.advice.Wrap(m.jp, h)
	}
	return h, true
}
