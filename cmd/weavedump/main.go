// Command weavedump prints the woven structure of a benchmark's AOmpLib
// version — every joinpoint with its annotations and the advice chain
// applied to it, outermost first. It is the analogue of the AspectJ
// compiler's weave-info messages and is the quickest way to see what a
// given aspect composition actually does.
//
// Usage:
//
//	go run ./cmd/weavedump            # all benchmarks
//	go run ./cmd/weavedump -only=lufact
//	go run ./cmd/weavedump -explain   # show which pointcut matched each advice
//
// Each advice line carries its enable state ([on]/[off], see
// Program.SetAdviceEnabled; a disabled advice stays listed but is not in
// the composed chain); with -explain it also shows the pointcut expression
// that selected the joinpoint.
//
// After the dump comes the paper's Table 2 ("Refactoring and abstractions
// used") for the dumped kernels, derived from the same weave rather than
// maintained by hand: refactorings from the registered joinpoint kinds
// (for methods = M2FOR, advised plain/value methods = M2M), abstractions
// from the advice applied to them.
//
// testdata/weave.golden holds the -explain output for all eight kernels;
// TestWeaveGolden fails when a kernel's aspect composition, or the Table 2
// derived from it, drifts from it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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

type weaveReporter interface {
	harness.Instance
	Program() *weaver.Program
}

// benchmarks lists the reported kernels in output order.
var benchmarks = []struct {
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

func main() {
	only := flag.String("only", "", "comma-separated benchmark filter")
	explain := flag.Bool("explain", false, "show the pointcut that matched each joinpoint")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "weavedump: unexpected argument %q (select benchmarks with -only)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	filter := map[string]bool{}
	for _, f := range strings.Split(*only, ",") {
		if f = strings.TrimSpace(strings.ToLower(f)); f != "" {
			filter[f] = true
		}
	}

	var known []string
	for _, b := range benchmarks {
		known = append(known, strings.ToLower(b.name))
	}
	for f := range filter {
		if !slices.Contains(known, f) {
			fmt.Fprintf(os.Stderr, "weavedump: unknown benchmark %q in -only (valid: %s)\n", f, strings.Join(known, ", "))
			os.Exit(2)
		}
	}
	dump(os.Stdout, filter, *explain)
}

// dump writes the weave of every kernel in filter (all of them when filter
// is empty) to w, then their Table 2; explain adds the pointcut that
// selected each advice.
func dump(w io.Writer, filter map[string]bool, explain bool) {
	var table2 strings.Builder
	for _, b := range benchmarks {
		if len(filter) > 0 && !filter[strings.ToLower(b.name)] {
			continue
		}
		b.inst.Setup()
		rep := b.inst.Program().Report()
		refs, abs := describe(rep)
		fmt.Fprintf(&table2, "%-12s %-18s %s\n", b.name, refs, abs)
		fmt.Fprintf(w, "=== %s ===\n", b.name)
		for _, wm := range rep {
			fmt.Fprintf(w, "  %-28s [%s]", wm.FQN, wm.Kind)
			if len(wm.Annotations) > 0 {
				fmt.Fprintf(w, " @%s", strings.Join(wm.Annotations, " @"))
			}
			fmt.Fprintln(w)
			if len(wm.Advice) == 0 {
				fmt.Fprintln(w, "      (unadvised — direct call)")
				continue
			}
			for i, d := range wm.Details {
				state := "on"
				if !d.Enabled {
					state = "off"
				}
				fmt.Fprintf(w, "      %s%s/%s [%s]", strings.Repeat("  ", i), d.Aspect, d.Advice, state)
				if explain {
					fmt.Fprintf(w, "  ← %s", d.Pointcut)
				}
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Table 2 — refactorings and abstractions used (introspected from the live weave)")
	fmt.Fprintf(w, "\n%-12s %-18s %s\n%s", "benchmark", "refactorings", "abstractions", table2.String())
	fmt.Fprintln(w, "\nLegend: PR parallel region; FOR(x) work-sharing with schedule x;")
	fmt.Fprintln(w, "BR barrier; MA master; SI single; CR critical; TLF thread-local field")
	fmt.Fprintln(w, "(incl. its reduction); CS case-specific aspect; M2FOR/M2M the paper's")
	fmt.Fprintln(w, "move-to-for-method / move-to-method refactorings.")
}

// describe derives one kernel's Table 2 row from its weave report.
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
