// Command abstractions regenerates the paper's Table 2 ("Refactoring and
// abstractions used") by introspecting the *actual* weave state of each
// benchmark's AOmpLib version rather than hand-maintaining a table:
// refactorings are derived from the registered joinpoint kinds (for
// methods = M2FOR, advised plain/value methods = M2M) and abstractions
// from the advice applied to them.
//
// Usage:
//
//	go run ./cmd/abstractions
package main

import (
	"fmt"
	"sort"
	"strings"

	"aomplib/internal/jgf/crypt"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/lufact"
	"aomplib/internal/jgf/moldyn"
	"aomplib/internal/jgf/montecarlo"
	"aomplib/internal/jgf/raytracer"
	"aomplib/internal/jgf/series"
	"aomplib/internal/jgf/sor"
	"aomplib/internal/jgf/sparse"
	"aomplib/internal/weaver"
)

// weaveReporter is implemented by every benchmark's Aomp instance.
type weaveReporter interface {
	harness.Instance
	Program() *weaver.Program
}

func describe(rep []weaver.WovenMethod) (refactorings, abstractions string) {
	counts := map[string]int{}
	m2for, m2m := 0, 0
	for _, wm := range rep {
		advised := len(wm.Advice) > 0
		switch {
		case wm.Kind == weaver.ForKind:
			m2for++
		case advised:
			m2m++
		}
		for _, adv := range wm.Advice {
			// adv is "aspect/advice"; classify by the advice mechanism.
			mech := adv[strings.LastIndexByte(adv, '/')+1:]
			switch {
			case mech == "parallel":
				counts["PR"]++
			case strings.HasPrefix(mech, "for(caseSpecific"):
				counts["FOR (Case Specific)"]++
				counts["CS"]++
			case strings.HasPrefix(mech, "for("):
				counts["FOR ("+mech[4:len(mech)-1]+")"]++
			case mech == "barrier":
				counts["BR"]++
			case mech == "master":
				counts["MA"]++
			case mech == "single":
				counts["SI"]++
			case mech == "critical":
				counts["CR"]++
			case strings.HasPrefix(mech, "threadLocal"):
				counts["TLF"]++
			case strings.HasPrefix(mech, "reduce"):
				// reductions are part of the TLF mechanism in Table 2
			case mech == "ordered":
				counts["ORD"]++
			default:
				counts["CS"]++ // case-specific custom advice
			}
		}
	}
	var refs []string
	if m2for > 0 {
		refs = append(refs, multi(m2for, "M2FOR"))
	}
	if m2m > 0 {
		refs = append(refs, multi(m2m, "M2M"))
	}
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return order(keys[i]) < order(keys[j]) })
	var abs []string
	for _, k := range keys {
		abs = append(abs, multi(counts[k], k))
	}
	return strings.Join(refs, ", "), strings.Join(abs, ", ")
}

func multi(n int, label string) string {
	if n == 1 {
		return label
	}
	return fmt.Sprintf("%dx%s", n, label)
}

func order(k string) string {
	rank := map[string]string{"PR": "0", "BR": "2", "MA": "3", "SI": "4", "CR": "5", "TLF": "6", "ORD": "7", "CS": "9"}
	if strings.HasPrefix(k, "FOR") {
		return "1" + k
	}
	if r, ok := rank[k]; ok {
		return r + k
	}
	return "8" + k
}

func main() {
	benchmarks := []struct {
		name string
		inst weaveReporter
	}{
		{"Crypt", crypt.NewAomp(crypt.SizeTest, 2).(weaveReporter)},
		{"LUFact", lufact.NewAomp(lufact.SizeTest, 2).(weaveReporter)},
		{"Series", series.NewAomp(series.SizeTest, 2).(weaveReporter)},
		{"SOR", sor.NewAomp(sor.SizeTest, 2).(weaveReporter)},
		{"Sparse", sparse.NewAomp(sparse.SizeTest, 2).(weaveReporter)},
		{"MolDyn", moldyn.NewAomp(moldyn.SizeTest, 2, moldyn.ThreadLocalStrategy).(weaveReporter)},
		{"MonteCarlo", montecarlo.NewAomp(montecarlo.SizeTest, 2).(weaveReporter)},
		{"RayTracer", raytracer.NewAomp(raytracer.SizeTest, 2).(weaveReporter)},
	}

	fmt.Println("Table 2 — refactorings and abstractions used (introspected from the live weave)")
	fmt.Printf("\n%-12s %-18s %s\n", "benchmark", "refactorings", "abstractions")
	for _, b := range benchmarks {
		b.inst.Setup() // registers joinpoints and weaves aspects
		refs, abs := describe(b.inst.Program().Report())
		fmt.Printf("%-12s %-18s %s\n", b.name, refs, abs)
	}
	fmt.Println("\nLegend: PR parallel region; FOR(x) work-sharing with schedule x;")
	fmt.Println("BR barrier; MA master; SI single; CR critical; TLF thread-local field")
	fmt.Println("(incl. its reduction); CS case-specific aspect; M2FOR/M2M the paper's")
	fmt.Println("move-to-for-method / move-to-method refactorings.")
}
