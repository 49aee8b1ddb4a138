// Code generated by weavegen (go run aomplib/cmd/weavegen -target=benchdemo). DO NOT EDIT.

package aomplib_test

import (
	"fmt"

	"aomplib/internal/core"
	"aomplib/internal/weaver"
)

// newStaticBenchProgram builds the frozen demo configuration the static
// plan below was generated from: class A with one region-entry method
// ("A.m", advised by a ParallelRegion) and one unadvised method
// ("A.plain"). Benchmarks construct it with their own thread count; the
// plan does not depend on it.
func newStaticBenchProgram(threadCount int) *weaver.Program {
	p := weaver.NewProgram("staticbench")
	cls := p.Class("A")
	cls.Proc("m", func() {})
	cls.Proc("plain", func() {})
	p.Use(core.ParallelRegion("call(* A.m(..))").Threads(threadCount))
	p.MustWeave()
	return p
}

// staticBenchPlan is the frozen weave this file was generated for. The bind
// function verifies it against the live program before handing out
// static entry points.
var staticBenchPlan = weaver.StaticPlan{
	Program: "staticbench",
	Methods: []weaver.PlannedMethod{
		{FQN: "A.m", Kind: weaver.ProcKind, Direct: false, NeedsWorker: false, Advice: []weaver.PlannedAdvice{
			{Aspect: "ParallelRegion", Name: "parallel", Enabled: true},
		}},
		{FQN: "A.plain", Kind: weaver.ProcKind, Direct: true, NeedsWorker: false},
	},
}

// staticBenchEntries holds the statically woven entry points: direct calls for
// unadvised methods, frozen (gate-free, chain-load-free) handlers for
// advised ones.
type staticBenchEntries struct {
	// M dispatches A.m.
	M func()
	// Plain dispatches A.plain.
	Plain func()
}

// bindStaticBench verifies that prog still matches the generated plan and
// returns its static entry points. A drift error means the dynamic
// configuration changed since generation: re-run go generate.
func bindStaticBench(prog *weaver.Program) (*staticBenchEntries, error) {
	if err := prog.VerifyPlan(staticBenchPlan); err != nil {
		return nil, err
	}
	e := &staticBenchEntries{}
	{
		m := prog.Method("A.m")
		h, ok := prog.FrozenHandler("A.m")
		if m == nil || !ok {
			return nil, fmt.Errorf("weavegen: method A.m missing")
		}
		jp := m.JP()
		e.M = func() {
			c := weaver.GetCall()
			c.JP = jp
			h(c)
			weaver.PutCall(c)
		}
	}
	{
		body, ok := prog.Method("A.plain").BodyFunc().(func())
		if !ok {
			return nil, fmt.Errorf("weavegen: body of A.plain has unexpected type")
		}
		e.Plain = body
	}
	return e, nil
}
