package pointcut

import (
	"strings"
	"testing"
)

// FuzzParsePointcut pins two contracts of the parser:
//
//  1. No input — however hostile — panics or hangs, in Parse or in
//     Matches; garbage returns an error (the depth limit turns kilobytes
//     of '(' into an error, not a stack overflow).
//  2. Accepted inputs round-trip: Parse(p.String()) succeeds, because
//     String returns the original source.
//
// Which joinpoints a pointcut selects is pinned against the weaver itself:
// incremental re-weaves must equal a weave from scratch
// (TestIncrementalEqualsFromScratch in internal/weaver).
func FuzzParsePointcut(f *testing.F) {
	seeds := []string{
		"call(int Linpack.dgefa(..))",
		"call(void reduceAllCols(..))",
		"execution(* Particle+.force(..))",
		"call(@Parallel * *(..))",
		"annotation(@Critical)",
		"within(Linpack) && !call(* *.idamax(..))",
		"call(* MD.*(..)) || within(Lin*) && call(* *.d*(int,..))",
		"(call(* *.*()))",
		"call(* *.re*All*s(*,*,*))",
		strings.Repeat("(", 80) + "within(X)" + strings.Repeat(")", 80),
		strings.Repeat("!", 100) + "within(X)",
		"call(",
		"frobnicate(x)",
		"call(* a.b.c.d(..))",
		"@@@&&||**..++",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	subjects := []fakeJP{dgefa, reduce, forceLJ, mdMove, annotAny,
		{class: "X", method: "X"}, {class: "", method: ""}}
	f.Fuzz(func(t *testing.T, src string) {
		pc, err := Parse(src)
		if err != nil {
			return // garbage is allowed, as long as it does not panic
		}
		if pc.String() != src {
			t.Fatalf("String() = %q, want original %q", pc.String(), src)
		}
		if _, err := Parse(pc.String()); err != nil {
			t.Fatalf("round-trip Parse(%q) failed: %v", pc.String(), err)
		}
		for _, s := range subjects {
			pc.Matches(s) // must not panic on any subject
		}
	})
}
