// Command jgfbench regenerates the paper's Figure 13: speed-ups of the
// hand-threaded JGF versions and the AOmpLib versions over the sequential
// base programs, across all eight Java Grande benchmarks, plus the
// Aomp-vs-MT relative difference backing the "less than 1%" claim (§V).
// Benchmarks with a dataflow port (LUFact, SOR) additionally run the
// @Depend-based Aomp-DF version against the barrier-based Aomp one, and
// benchmarks with a generic-algorithms port (Series, SOR) run a Parallel
// version (package parallel's For/ForRange) against the woven Aomp one.
//
// Every variant of one benchmark is timed in paired rounds (package
// harness's Rounds), and each figure is the median and quartiles of
// per-round quotients, so host drift between rounds cancels out.
//
// Usage:
//
//	go run ./cmd/jgfbench -size=test -threads=1,2 -rounds=3
//	go run ./cmd/jgfbench -size=A -threads=1,2 -rounds=10
//	go run ./cmd/jgfbench -size=test -threads=1,4 -json=BENCH_ci.json
//
// perf/figure13.md and README hold the size-A rows, pasted by hand with
// the unresolved(host) marks a second session on the same commit adds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"aomplib"
	"aomplib/internal/jgf/crypt"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/lufact"
	"aomplib/internal/jgf/moldyn"
	"aomplib/internal/jgf/montecarlo"
	"aomplib/internal/jgf/raytracer"
	"aomplib/internal/jgf/series"
	"aomplib/internal/jgf/sor"
	"aomplib/internal/jgf/sparse"
)

type bench struct {
	name string
	seq  func() harness.Instance
	mt   func(threads int) harness.Instance
	aomp func(threads int) harness.Instance
	// dep is the dataflow (@Depend) version, when the benchmark has one.
	dep func(threads int) harness.Instance
	// par is the generic-algorithms (package parallel) version, when the
	// benchmark has one: the Aomp kernel re-expressed as parallel.ForRange,
	// so the layer's dispatch cost is measured against the woven @For.
	par func(threads int) harness.Instance
}

// suite builds the benchmark list at the given size. k is the loop
// schedule of the kernels that take one (Crypt, LUFact, Series, SOR); the
// others keep the schedules their aspects name.
func suite(size string, k aomplib.Schedule) []bench {
	i := map[string]int{"A": 1, "B": 2}[size] // test: 0
	sp := []series.Params{series.SizeTest, series.SizeA, series.SizeB}[i]
	cp := []crypt.Params{crypt.SizeTest, crypt.SizeA, crypt.SizeB}[i]
	lp := []lufact.Params{lufact.SizeTest, lufact.SizeA, lufact.SizeB}[i]
	op := []sor.Params{sor.SizeTest, sor.SizeA, sor.SizeB}[i]
	pp := []sparse.Params{sparse.SizeTest, sparse.SizeA, sparse.SizeB}[i]
	mp := []moldyn.Params{moldyn.SizeTest, moldyn.SizeA, moldyn.SizeB}[i]
	qp := []montecarlo.Params{montecarlo.SizeTest, montecarlo.SizeA, montecarlo.SizeB}[i]
	rp := []raytracer.Params{raytracer.SizeTest, raytracer.SizeA, raytracer.SizeB}[i]
	sp.Schedule, cp.Schedule, lp.Schedule, op.Schedule = k, k, k, k

	return []bench{
		{name: "Crypt", seq: func() harness.Instance { return crypt.NewSeq(cp) },
			mt:   func(t int) harness.Instance { return crypt.NewMT(cp, t) },
			aomp: func(t int) harness.Instance { return crypt.NewAomp(cp, t) }},
		{name: "LUFact", seq: func() harness.Instance { return lufact.NewSeq(lp) },
			mt:   func(t int) harness.Instance { return lufact.NewMT(lp, t) },
			aomp: func(t int) harness.Instance { return lufact.NewAomp(lp, t) },
			dep:  func(t int) harness.Instance { return lufact.NewAompDep(lp, t) }},
		{name: "Series", seq: func() harness.Instance { return series.NewSeq(sp) },
			mt:   func(t int) harness.Instance { return series.NewMT(sp, t) },
			aomp: func(t int) harness.Instance { return series.NewAomp(sp, t) },
			par:  func(t int) harness.Instance { return series.NewParallel(sp, t) }},
		{name: "SOR", seq: func() harness.Instance { return sor.NewSeq(op) },
			mt:   func(t int) harness.Instance { return sor.NewMT(op, t) },
			aomp: func(t int) harness.Instance { return sor.NewAomp(op, t) },
			dep:  func(t int) harness.Instance { return sor.NewAompDep(op, t) },
			par:  func(t int) harness.Instance { return sor.NewParallel(op, t) }},
		{name: "Sparse", seq: func() harness.Instance { return sparse.NewSeq(pp) },
			mt:   func(t int) harness.Instance { return sparse.NewMT(pp, t) },
			aomp: func(t int) harness.Instance { return sparse.NewAomp(pp, t) }},
		{name: "MolDyn", seq: func() harness.Instance { return moldyn.NewSeq(mp) },
			mt:   func(t int) harness.Instance { return moldyn.NewMT(mp, t) },
			aomp: func(t int) harness.Instance { return moldyn.NewAomp(mp, t, moldyn.ThreadLocalStrategy) }},
		{name: "MonteCarlo", seq: func() harness.Instance { return montecarlo.NewSeq(qp) },
			mt:   func(t int) harness.Instance { return montecarlo.NewMT(qp, t) },
			aomp: func(t int) harness.Instance { return montecarlo.NewAomp(qp, t) }},
		{name: "RayTracer", seq: func() harness.Instance { return raytracer.NewSeq(rp) },
			mt:   func(t int) harness.Instance { return raytracer.NewMT(rp, t) },
			aomp: func(t int) harness.Instance { return raytracer.NewAomp(rp, t) }},
	}
}

func parseThreads(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "jgfbench: bad thread count %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

// parseOnly selects the benchmarks the -only filter names, in suite
// order, or all of them for an empty filter; an unknown name is a hard
// error listing the valid ones, not a silent empty run.
func parseOnly(s string, benches []bench) []bench {
	valid := make([]string, len(benches))
	for i, b := range benches {
		valid[i] = strings.ToLower(b.name)
	}
	filter := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool { return r == ',' || r == ' ' })
	for _, f := range filter {
		if !slices.Contains(valid, f) {
			fmt.Fprintf(os.Stderr, "jgfbench: unknown benchmark %q in -only (valid: %s)\n", f, strings.Join(valid, ", "))
			os.Exit(2)
		}
	}
	var out []bench
	for i, b := range benches {
		if len(filter) == 0 || slices.Contains(filter, valid[i]) {
			out = append(out, b)
		}
	}
	return out
}

// jsonResult is one variant's record in the machine-readable report:
// every round's Kernel seconds, in round order, and the per-round
// quotient summaries — Speedup is Seq's seconds over this variant's,
// OverMT (Aomp rows) this variant's over JGF-MT's at the same team size.
type jsonResult struct {
	Benchmark string            `json:"benchmark"`
	Version   string            `json:"version"`
	Threads   int               `json:"threads"`
	Seconds   []float64         `json:"seconds"`
	Speedup   *harness.Quotient `json:"speedup,omitempty"`
	OverMT    *harness.Quotient `json:"over_mt,omitempty"`
	Valid     bool              `json:"valid"`
	Error     string            `json:"error,omitempty"`
}

// jsonSchedStats is the scheduling-mechanism slice of the metrics
// registry, included in the report when the run was traced (-trace
// enables the registry for the run and reports its delta): the tracer
// counts nothing, so a traced run's barrier wait comes from here, and a
// zero barrier_wait_ns on a run that meets team barriers means the
// registry was not wired to the run.
type jsonSchedStats struct {
	StealAttempts uint64 `json:"steal_attempts"`
	Steals        uint64 `json:"steals"`
	BarrierWaitNs uint64 `json:"barrier_wait_ns"`
}

// jsonReport is the -json output: enough metadata to compare runs across
// commits (the CI perf trajectory) plus every variant's rounds. HotTeams
// and Schedule record the configuration of the run (Schedule: the kind the
// Crypt, LUFact, Series and SOR kernels ran) — numbers measured with pooled
// teams or another schedule must not be compared against runs without them.
type jsonReport struct {
	Schema     int             `json:"schema"`
	Size       string          `json:"size"`
	Threads    []int           `json:"threads"`
	Rounds     int             `json:"rounds"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	GoVersion  string          `json:"go_version"`
	HotTeams   bool            `json:"hot_teams"`
	Schedule   string          `json:"schedule"`
	Timestamp  string          `json:"timestamp"`
	SchedStats *jsonSchedStats `json:"sched_stats,omitempty"`
	Results    []jsonResult    `json:"results"`
}

// kernelRun is one benchmark's variants after all its rounds.
type kernelRun struct {
	name string
	ms   []harness.Measurement
}

// find returns k's measurement of version at threads (Seq's is at 1), or
// nil.
func (k kernelRun) find(version harness.Version, threads int) *harness.Measurement {
	for i, m := range k.ms {
		if m.Version == version && m.Threads == threads {
			return &k.ms[i]
		}
	}
	return nil
}

// versions labels bench's mt, aomp, dep and par constructors, in order.
var versions = []harness.Version{harness.MT, harness.Aomp, harness.AompDep, harness.Par}

// runSuite times each benchmark's variants — Seq once, and MT, Aomp and
// the benchmark's Aomp-DF and Parallel versions at every team size — in
// rounds paired rounds, one benchmark after another, so only one
// benchmark's instances are alive at a time. It reports every validation
// failure on stderr and returns the runs and the number of invalid
// variants.
func runSuite(benches []bench, threads []int, rounds int) ([]kernelRun, int) {
	var runs []kernelRun
	failures := 0
	for _, b := range benches {
		vs := []harness.Variant{{Version: harness.Seq, Threads: 1, Inst: b.seq()}}
		for _, t := range threads {
			for v, mk := range []func(int) harness.Instance{b.mt, b.aomp, b.dep, b.par} {
				if mk != nil {
					vs = append(vs, harness.Variant{Version: versions[v], Threads: t, Inst: mk(t)})
				}
			}
		}
		fmt.Fprintf(os.Stderr, "running %s (%d variants x %d rounds)...\n", b.name, len(vs), rounds)
		ms := harness.Rounds(vs, rounds)
		for _, m := range ms {
			if m.Err != nil {
				fmt.Fprintf(os.Stderr, "VALIDATION FAILURE %s/%s/%dT: %v\n", b.name, m.Version, m.Threads, m.Err)
				failures++
			}
		}
		runs = append(runs, kernelRun{name: b.name, ms: ms})
	}
	return runs, failures
}

// render writes the Figure 13 table in Markdown: per benchmark and team
// size, the median Seq time and, as median (P25–P75) of the per-round
// quotients, each version's speed-up over Seq and Aomp's time over
// JGF-MT's.
func render(w io.Writer, runs []kernelRun, threads []int) {
	fmt.Fprintln(w, "| kernel | T | Seq s | JGF-MT | Aomp | Aomp/MT | Aomp-DF | Parallel |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|")
	for _, k := range runs {
		seq := k.find(harness.Seq, 1)
		// Seq's median seconds: its times as quotients over 1 s.
		seqMedian := harness.Quotients(seq.Seconds, slices.Repeat([]float64{1}, len(seq.Seconds))).Median
		cell := func(v harness.Version, t int) string {
			m := k.find(v, t)
			switch {
			case m == nil:
				return "–"
			case m.Err != nil || seq.Err != nil:
				return "INVALID"
			}
			return harness.Quotients(seq.Seconds, m.Seconds).Text(2)
		}
		for _, t := range threads {
			overMT := "INVALID"
			if mt, ao := k.find(harness.MT, t), k.find(harness.Aomp, t); mt.Err == nil && ao.Err == nil {
				overMT = harness.Quotients(ao.Seconds, mt.Seconds).Text(3)
			}
			fmt.Fprintf(w, "| %s | %d | %.3f | %s | %s | %s | %s | %s |\n", k.name, t, seqMedian,
				cell(harness.MT, t), cell(harness.Aomp, t), overMT,
				cell(harness.AompDep, t), cell(harness.Par, t))
		}
	}
}

func main() {
	size := flag.String("size", "test", "problem size: test, A or B")
	threadsFlag := flag.String("threads", fmt.Sprintf("1,%d", runtime.GOMAXPROCS(0)),
		"comma-separated team sizes")
	rounds := flag.Int("rounds", 5, "paired rounds; each times every variant once, the order rotating")
	only := flag.String("only", "",
		"comma-separated benchmark filter\n"+
			"(valid: crypt, lufact, series, sor, sparse, moldyn, montecarlo, raytracer)")
	jsonPath := flag.String("json", "", "write machine-readable results to this file")
	tracePath := flag.String("trace", "",
		"record the whole run and write a Chrome trace (load at ui.perfetto.dev) to this file")
	schedule := flag.String("schedule", "staticBlock",
		"loop schedule of the Crypt, LUFact, Series and SOR kernels\n"+
			"(staticBlock, staticCyclic, dynamic, guided, adaptive)")
	hotTeams := flag.Bool("hotteams", true, "reuse pooled worker teams across region entries")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jgfbench: unexpected argument %q (select benchmarks with -only)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *size != "test" && *size != "A" && *size != "B" {
		fmt.Fprintf(os.Stderr, "jgfbench: unknown -size %q (valid: test, A, B)\n", *size)
		flag.Usage()
		os.Exit(2)
	}
	if *rounds <= 0 {
		fmt.Fprintf(os.Stderr, "jgfbench: -rounds must be > 0 (got %d): a run with zero rounds measures nothing\n", *rounds)
		os.Exit(2)
	}
	kind, err := aomplib.ParseSchedule(*schedule)
	if err != nil || kind == aomplib.CaseSpecific {
		fmt.Fprintf(os.Stderr, "jgfbench: -schedule=%s: not a kernel schedule "+
			"(valid: staticBlock, staticCyclic, dynamic, guided, adaptive)\n", *schedule)
		os.Exit(2)
	}
	aomplib.SetHotTeams(*hotTeams)

	threads := parseThreads(*threadsFlag)
	benches := parseOnly(*only, suite(*size, kind))

	var runs []kernelRun
	var failures int
	var schedStats *jsonSchedStats
	if *tracePath != "" {
		traced := func() {
			// The tracer records the timeline and counts nothing; the
			// counts are the metrics registry's delta over the run.
			defer aomplib.EnableMetrics(aomplib.EnableMetrics(true))
			before := aomplib.ReadMetrics()
			runs, failures = runSuite(benches, threads, *rounds)
			m := aomplib.ReadMetrics()
			schedStats = &jsonSchedStats{
				StealAttempts: m.StealAttempts - before.StealAttempts,
				Steals:        m.Steals - before.Steals,
				BarrierWaitNs: m.BarrierWait.SumNs - before.BarrierWait.SumNs,
			}
		}
		if err := traceRun(*tracePath, traced); err != nil {
			fmt.Fprintf(os.Stderr, "jgfbench: writing trace %s: %v\n", *tracePath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "jgfbench: wrote %s\n", *tracePath)
	} else {
		runs, failures = runSuite(benches, threads, *rounds)
	}

	fmt.Printf("Figure 13 — speed-up over Seq and Aomp/JGF-MT time, median (P25–P75) of %d paired rounds\n", *rounds)
	fmt.Printf("(size %s, GOMAXPROCS=%d, hotteams=%v, schedule=%s; paper: Aomp within 1%% of JGF-MT)\n\n",
		*size, runtime.GOMAXPROCS(0), aomplib.HotTeamsEnabled(), kind)
	render(os.Stdout, runs, threads)

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, *size, kind, threads, *rounds, schedStats, runs); err != nil {
			fmt.Fprintf(os.Stderr, "jgfbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "jgfbench: wrote %s\n", *jsonPath)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "jgfbench: %d validation failures\n", failures)
		os.Exit(1)
	}
}

func writeJSON(path, size string, kind aomplib.Schedule, threads []int, rounds int,
	schedStats *jsonSchedStats, runs []kernelRun) error {
	rep := jsonReport{
		Schema:     6,
		Size:       size,
		Threads:    threads,
		Rounds:     rounds,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		HotTeams:   aomplib.HotTeamsEnabled(),
		Schedule:   kind.String(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		SchedStats: schedStats,
	}
	for _, k := range runs {
		seq := k.find(harness.Seq, 1)
		for _, m := range k.ms {
			r := jsonResult{
				Benchmark: k.name,
				Version:   string(m.Version),
				Threads:   m.Threads,
				Seconds:   m.Seconds,
				Valid:     m.Err == nil,
			}
			if m.Err != nil {
				r.Error = m.Err.Error()
			}
			if m.Version != harness.Seq {
				q := harness.Quotients(seq.Seconds, m.Seconds)
				r.Speedup = &q
			}
			if m.Version == harness.Aomp {
				q := harness.Quotients(m.Seconds, k.find(harness.MT, m.Threads).Seconds)
				r.OverMT = &q
			}
			rep.Results = append(rep.Results, r)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
