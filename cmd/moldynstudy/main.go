// Command moldynstudy regenerates the paper's Figure 15: the performance
// of different MolDyn parallelisations — a critical region on the force
// update, one lock per particle, and the JGF thread-local-array strategy —
// across particle counts and team sizes, all as pluggable aspects over the
// same base program.
//
// Usage:
//
//	go run ./cmd/moldynstudy -mm=6,8 -threads=2 -moves=10
//	go run ./cmd/moldynstudy -mm=6,8,13,17 -big -threads=2,4   # paper sweep
package main

import (
	"flag"
	"fmt"
	"os"
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

func main() {
	mmFlag := flag.String("mm", "6,8", "lattice sizes (particles = 4·mm³); paper uses 6,8,13,17,40,50")
	big := flag.Bool("big", false, "append the paper's 256k/500k sizes (mm=40,50; slow)")
	moves := flag.Int("moves", 10, "time steps per run")
	threadsFlag := flag.String("threads", "2", "comma-separated team sizes")
	reps := flag.Int("reps", 1, "kernel repetitions (fastest kept)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "moldynstudy: unexpected argument %q (set sizes with -mm)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *moves < 1 || *reps < 1 {
		fmt.Fprintf(os.Stderr, "moldynstudy: -moves and -reps must be at least 1 (got %d and %d)\n", *moves, *reps)
		flag.Usage()
		os.Exit(2)
	}

	mms := parseInts(*mmFlag)
	if *big {
		mms = append(mms, 40, 50)
	}
	threads := parseInts(*threadsFlag)

	type variant struct {
		name string
		mk   func(p moldyn.Params, t int) harness.Instance
	}
	variants := []variant{
		{"Critical", func(p moldyn.Params, t int) harness.Instance {
			return moldyn.NewAomp(p, t, moldyn.CriticalStrategy)
		}},
		{"Locks", func(p moldyn.Params, t int) harness.Instance {
			return moldyn.NewAomp(p, t, moldyn.LockPerParticleStrategy)
		}},
		{"JGF", func(p moldyn.Params, t int) harness.Instance {
			return moldyn.NewMT(p, t)
		}},
		{"AompTL", func(p moldyn.Params, t int) harness.Instance {
			return moldyn.NewAomp(p, t, moldyn.ThreadLocalStrategy)
		}},
	}

	fmt.Printf("Figure 15 — MolDyn parallelisation strategies, speed-up over sequential\n")
	fmt.Printf("(moves=%d; Critical/Locks/AompTL are aspects over one base program)\n\n", *moves)
	fmt.Printf("%-10s %-10s %10s", "variant", "particles", "seq(s)")
	for _, t := range threads {
		fmt.Printf(" %9dT", t)
	}
	fmt.Println()

	exit := 0
	for _, mm := range mms {
		p := moldyn.Params{MM: mm, Moves: *moves}
		seq := harness.Measure("MolDyn", harness.Seq, 1, moldyn.NewSeq(p), *reps)
		if seq.Err != nil {
			fmt.Fprintf(os.Stderr, "seq validation failed (mm=%d): %v\n", mm, seq.Err)
			exit = 1
			continue
		}
		for _, v := range variants {
			fmt.Printf("%-10s %-10d %10.3f", v.name, p.N(), seq.Seconds)
			for _, t := range threads {
				m := harness.Measure("MolDyn", harness.Version(v.name), t, v.mk(p, t), *reps)
				if m.Err != nil {
					fmt.Printf(" %10s", "INVALID")
					fmt.Fprintf(os.Stderr, "validation failed %s mm=%d t=%d: %v\n", v.name, mm, t, m.Err)
					exit = 1
					continue
				}
				fmt.Printf(" %9.2fx", harness.Speedup(seq, m))
			}
			fmt.Println()
		}
		fmt.Println()
	}
	os.Exit(exit)
}
