package weaver

import (
	"fmt"
	"testing"
)

// The reconfiguration benchmarks run on the repository benchmark's
// reweave-live shape: 64 methods in 4 classes, each carrying a counter
// advice through call(* C*.*(..)), and a wildcard aspect over
// call(* *.m1*(..)) — 28 of the methods — that is plugged and unplugged.

func reconfigProgram() (p *Program, fqns []string, wild Aspect) {
	p = NewProgram("reconfig")
	for i := 0; i < 64; i++ {
		p.Class(fmt.Sprintf("C%d", i/16)).Proc(fmt.Sprintf("m%d", i%16), func() {})
		fqns = append(fqns, fmt.Sprintf("C%d.m%d", i/16, i%16))
	}
	p.Use(&SimpleAspect{Name: "Count", Bind: []Binding{bind("call(* C*.*(..))", passAdvice("count", 10, false))}})
	p.MustWeave()
	wild = &SimpleAspect{Name: "Wild", Bind: []Binding{bind("call(* *.m1*(..))", passAdvice("wild", 20, false))}}
	return p, fqns, wild
}

// BenchmarkReconfigToggle is one per-method SetAdviceEnabled, switching
// the counter off on each method in turn and then on again.
func BenchmarkReconfigToggle(b *testing.B) {
	p, fqns, _ := reconfigProgram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SetAdviceEnabled("Count", i/len(fqns)%2 == 1, fqns[i%len(fqns)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconfigUseRemove is one Use and one RemoveAspect of the
// wildcard aspect.
func BenchmarkReconfigUseRemove(b *testing.B) {
	p, _, wild := reconfigProgram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Use(wild)
		p.RemoveAspect("Wild")
	}
}

// BenchmarkReconfigWeave is one Unweave and one Weave of all 64 methods.
func BenchmarkReconfigWeave(b *testing.B) {
	p, _, _ := reconfigProgram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Unweave()
		p.MustWeave()
	}
}
