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
// testdata/weave.golden holds the -explain output for all eight kernels;
// TestWeaveGolden fails when a kernel's aspect composition drifts from it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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
	WeaveReport() []weaver.WovenMethod
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
// is empty) to w; explain adds the pointcut that selected each advice.
func dump(w io.Writer, filter map[string]bool, explain bool) {
	for _, b := range benchmarks {
		if len(filter) > 0 && !filter[strings.ToLower(b.name)] {
			continue
		}
		b.inst.Setup()
		fmt.Fprintf(w, "=== %s ===\n", b.name)
		for _, wm := range b.inst.WeaveReport() {
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
}
