// Code generated by weavegen (go run aomplib/cmd/weavegen -target=sor). DO NOT EDIT.

package sor

import (
	"fmt"

	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// staticPlan is the frozen weave this file was generated for. The bind
// function verifies it against the live program before handing out
// static entry points.
var staticPlan = weaver.StaticPlan{
	Program: "SOR",
	Methods: []weaver.PlannedMethod{
		{FQN: "SOR.relaxBlack", Kind: weaver.ForKind, Direct: false, NeedsWorker: true, Advice: []weaver.PlannedAdvice{
			{Aspect: "BarrierAfter", Name: "barrier", Enabled: true},
			{Aspect: "For", Name: "for(runtime)", Enabled: true},
		}},
		{FQN: "SOR.relaxRed", Kind: weaver.ForKind, Direct: false, NeedsWorker: true, Advice: []weaver.PlannedAdvice{
			{Aspect: "BarrierAfter", Name: "barrier", Enabled: true},
			{Aspect: "For", Name: "for(runtime)", Enabled: true},
		}},
		{FQN: "SOR.run", Kind: weaver.ProcKind, Direct: false, NeedsWorker: false, Advice: []weaver.PlannedAdvice{
			{Aspect: "ParallelRegion", Name: "parallel", Enabled: true},
		}},
	},
}

// StaticEntries holds the statically woven entry points: direct calls for
// unadvised methods, frozen (gate-free, chain-load-free) handlers for
// advised ones.
type StaticEntries struct {
	// RelaxBlack dispatches SOR.relaxBlack.
	RelaxBlack func(lo, hi, step int)
	// RelaxRed dispatches SOR.relaxRed.
	RelaxRed func(lo, hi, step int)
	// Run dispatches SOR.run.
	Run func()
}

// BindStatic verifies that prog still matches the generated plan and
// returns its static entry points. A drift error means the dynamic
// configuration changed since generation: re-run go generate.
func BindStatic(prog *weaver.Program) (*StaticEntries, error) {
	if err := prog.VerifyPlan(staticPlan); err != nil {
		return nil, err
	}
	e := &StaticEntries{}
	{
		m := prog.Method("SOR.relaxBlack")
		h, ok := prog.FrozenHandler("SOR.relaxBlack")
		if m == nil || !ok {
			return nil, fmt.Errorf("weavegen: method SOR.relaxBlack missing")
		}
		jp := m.JP()
		e.RelaxBlack = func(lo, hi, step int) {
			c := weaver.GetCall()
			c.JP, c.Lo, c.Hi, c.Step = jp, lo, hi, step
			c.Worker = rt.Current()
			h(c)
			weaver.PutCall(c)
		}
	}
	{
		m := prog.Method("SOR.relaxRed")
		h, ok := prog.FrozenHandler("SOR.relaxRed")
		if m == nil || !ok {
			return nil, fmt.Errorf("weavegen: method SOR.relaxRed missing")
		}
		jp := m.JP()
		e.RelaxRed = func(lo, hi, step int) {
			c := weaver.GetCall()
			c.JP, c.Lo, c.Hi, c.Step = jp, lo, hi, step
			c.Worker = rt.Current()
			h(c)
			weaver.PutCall(c)
		}
	}
	{
		m := prog.Method("SOR.run")
		h, ok := prog.FrozenHandler("SOR.run")
		if m == nil || !ok {
			return nil, fmt.Errorf("weavegen: method SOR.run missing")
		}
		jp := m.JP()
		e.Run = func() {
			c := weaver.GetCall()
			c.JP = jp
			h(c)
			weaver.PutCall(c)
		}
	}
	return e, nil
}
