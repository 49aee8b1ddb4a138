// Command moldynstudy regenerates the paper's Figure 15: the performance
// of different MolDyn parallelisations — a critical region on the force
// update, one lock per particle, and the JGF thread-local-array strategy —
// across particle counts and team sizes, all as pluggable aspects over the
// same base program. Each lattice size's variants are timed in paired
// rounds (package harness's Rounds) and every figure is the median and
// quartiles of the per-round speed-ups over Seq.
//
// Usage:
//
//	go run ./cmd/moldynstudy -mm=6,8 -threads=2 -moves=10
//	go run ./cmd/moldynstudy -mm=6,8,13 -threads=2 -rounds=10   # perf/figure15.md's rows
//	go run ./cmd/moldynstudy -mm=6,8,13,17 -big -threads=2,4   # paper sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/moldyn"
)

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "moldynstudy: bad integer %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

// strategies are the Figure 15 variants beside Seq, in table order.
var strategies = []struct {
	name string
	mk   func(p moldyn.Params, t int) harness.Instance
}{
	{"JGF", func(p moldyn.Params, t int) harness.Instance { return moldyn.NewMT(p, t) }},
	{"Critical", aomp(moldyn.CriticalStrategy)},
	{"Locks", aomp(moldyn.LockPerParticleStrategy)},
	{"AompTL", aomp(moldyn.ThreadLocalStrategy)},
}

// aomp builds the Aomp version woven with strategy s.
func aomp(s moldyn.Strategy) func(moldyn.Params, int) harness.Instance {
	return func(p moldyn.Params, t int) harness.Instance { return moldyn.NewAomp(p, t, s) }
}

func main() {
	mmFlag := flag.String("mm", "6,8", "lattice sizes (particles = 4·mm³); paper uses 6,8,13,17,40,50")
	big := flag.Bool("big", false, "append the paper's 256k/500k sizes (mm=40,50; slow)")
	moves := flag.Int("moves", 10, "time steps per run")
	threadsFlag := flag.String("threads", "2", "comma-separated team sizes")
	rounds := flag.Int("rounds", 5, "paired rounds; each times every variant once, the order rotating")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "moldynstudy: unexpected argument %q (set sizes with -mm)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *moves < 1 || *rounds < 1 {
		fmt.Fprintf(os.Stderr, "moldynstudy: -moves and -rounds must be at least 1 (got %d and %d)\n", *moves, *rounds)
		flag.Usage()
		os.Exit(2)
	}

	mms := parseInts(*mmFlag)
	if *big {
		mms = append(mms, 40, 50)
	}
	threads := parseInts(*threadsFlag)

	fmt.Printf("Figure 15 — MolDyn strategies, speed-up over Seq, median (P25–P75) of %d paired rounds\n", *rounds)
	fmt.Printf("(moves=%d; Critical, Locks and AompTL are aspects over one base program)\n\n", *moves)
	head, rule := "| variant | particles | Seq s |", "|---|---:|---:|"
	for _, t := range threads {
		head, rule = head+fmt.Sprintf(" %dT |", t), rule+"---:|"
	}
	fmt.Printf("%s\n%s\n", head, rule)

	exit := 0
	for _, mm := range mms {
		p := moldyn.Params{MM: mm, Moves: *moves}
		vs := []harness.Variant{{Version: harness.Seq, Threads: 1, Inst: moldyn.NewSeq(p)}}
		for _, s := range strategies {
			for _, t := range threads {
				vs = append(vs, harness.Variant{Version: harness.Version(s.name), Threads: t, Inst: s.mk(p, t)})
			}
		}
		fmt.Fprintf(os.Stderr, "running mm=%d (%d variants x %d rounds)...\n", mm, len(vs), *rounds)
		ms := harness.Rounds(vs, *rounds)
		for _, m := range ms {
			if m.Err != nil {
				fmt.Fprintf(os.Stderr, "validation failed %s mm=%d t=%d: %v\n", m.Version, mm, m.Threads, m.Err)
				exit = 1
			}
		}
		seq := ms[0]
		// Seq's median seconds: its times as quotients over 1 s.
		seqMedian := harness.Quotients(seq.Seconds, slices.Repeat([]float64{1}, *rounds)).Median
		for i, s := range strategies {
			fmt.Printf("| %s | %d | %.3f |", s.name, p.N(), seqMedian)
			for j := range threads {
				m := ms[1+i*len(threads)+j]
				if m.Err != nil || seq.Err != nil {
					fmt.Print(" INVALID |")
					continue
				}
				fmt.Printf(" %s |", harness.Quotients(seq.Seconds, m.Seconds).Text(2))
			}
			fmt.Println()
		}
	}
	os.Exit(exit)
}
