// Code generated by weavegen (go run aomplib/cmd/weavegen -target=series). DO NOT EDIT.

package series

import (
	"fmt"

	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// staticPlan is the frozen weave this file was generated for. The bind
// function verifies it against the live program before handing out
// static entry points.
var staticPlan = weaver.StaticPlan{
	Program: "Series",
	Methods: []weaver.PlannedMethod{
		{FQN: "Series.buildCoeffs", Kind: weaver.ForKind, Direct: false, NeedsWorker: true, Advice: []weaver.PlannedAdvice{
			{Aspect: "For", Name: "for(runtime)", Enabled: true},
		}},
		{FQN: "Series.run", Kind: weaver.ProcKind, Direct: false, NeedsWorker: false, Advice: []weaver.PlannedAdvice{
			{Aspect: "ParallelRegion", Name: "parallel", Enabled: true},
		}},
	},
}

// StaticEntries holds the statically woven entry points: direct calls for
// unadvised methods, frozen (gate-free, chain-load-free) handlers for
// advised ones.
type StaticEntries struct {
	// BuildCoeffs dispatches Series.buildCoeffs.
	BuildCoeffs func(lo, hi, step int)
	// Run dispatches Series.run.
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
		m := prog.Method("Series.buildCoeffs")
		h, ok := prog.FrozenHandler("Series.buildCoeffs")
		if m == nil || !ok {
			return nil, fmt.Errorf("weavegen: method Series.buildCoeffs missing")
		}
		jp := m.JP()
		e.BuildCoeffs = func(lo, hi, step int) {
			c := weaver.GetCall()
			c.JP, c.Lo, c.Hi, c.Step = jp, lo, hi, step
			c.Worker = rt.Current()
			h(c)
			weaver.PutCall(c)
		}
	}
	{
		m := prog.Method("Series.run")
		h, ok := prog.FrozenHandler("Series.run")
		if m == nil || !ok {
			return nil, fmt.Errorf("weavegen: method Series.run missing")
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
