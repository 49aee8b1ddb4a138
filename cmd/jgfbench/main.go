// Command jgfbench regenerates the paper's Figure 13: speed-ups of the
// hand-threaded JGF versions and the AOmpLib versions over the sequential
// base programs, across all eight Java Grande benchmarks, plus the
// Aomp-vs-MT relative difference backing the "less than 1%" claim (§V).
// Benchmarks with a dataflow port (LUFact, SOR) additionally run the
// @Depend-based Aomp-DF version against the barrier-based Aomp one, and
// benchmarks with a generic-algorithms port (Series, SOR) run a Parallel
// version (package parallel's For/ForRange) against the woven Aomp one.
//
// Usage:
//
//	go run ./cmd/jgfbench -size=test -threads=1,2 -reps=3
//	go run ./cmd/jgfbench -size=A -threads=2 -only=crypt,moldyn
//	go run ./cmd/jgfbench -size=test -threads=1,4 -json=BENCH_ci.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
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

func suite(size string) []bench {
	pick := func(test, a, b any) any {
		switch size {
		case "A":
			return a
		case "B":
			return b
		default:
			return test
		}
	}
	sp := pick(series.SizeTest, series.SizeA, series.SizeB).(series.Params)
	cp := pick(crypt.SizeTest, crypt.SizeA, crypt.SizeB).(crypt.Params)
	lp := pick(lufact.SizeTest, lufact.SizeA, lufact.SizeB).(lufact.Params)
	op := pick(sor.SizeTest, sor.SizeA, sor.SizeB).(sor.Params)
	pp := pick(sparse.SizeTest, sparse.SizeA, sparse.SizeB).(sparse.Params)
	mp := pick(moldyn.SizeTest, moldyn.SizeA, moldyn.SizeB).(moldyn.Params)
	qp := pick(montecarlo.SizeTest, montecarlo.SizeA, montecarlo.SizeB).(montecarlo.Params)
	rp := pick(raytracer.SizeTest, raytracer.SizeA, raytracer.SizeB).(raytracer.Params)

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

// parseAsym parses the -asym spec — comma-separated worker:spins pairs —
// into the per-worker spin table (index = team worker ID). Malformed
// pairs are hard errors: a silently ignored throttle would invalidate the
// asymmetry comparison the flag exists for.
func parseAsym(s string) []int {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var spins []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		id, units, ok := strings.Cut(part, ":")
		w, err1 := strconv.Atoi(strings.TrimSpace(id))
		u, err2 := strconv.Atoi(strings.TrimSpace(units))
		if !ok || err1 != nil || err2 != nil || w < 0 || u < 0 {
			fmt.Fprintf(os.Stderr, "jgfbench: bad -asym pair %q (want worker:spins, e.g. 0:300)\n", part)
			os.Exit(2)
		}
		for len(spins) <= w {
			spins = append(spins, 0)
		}
		spins[w] = u
	}
	return spins
}

// parseOnly validates the -only filter against the suite's benchmark
// names; an unknown name is a hard error listing the valid ones, not a
// silent empty run.
func parseOnly(s string, benches []bench) map[string]bool {
	valid := make([]string, len(benches))
	for i, b := range benches {
		valid[i] = strings.ToLower(b.name)
	}
	filter := map[string]bool{}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(strings.ToLower(f))
		if f == "" {
			continue
		}
		known := false
		for _, v := range valid {
			if f == v {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "jgfbench: unknown benchmark %q in -only (valid: %s)\n",
				f, strings.Join(valid, ", "))
			os.Exit(2)
		}
		filter[f] = true
	}
	return filter
}

// jsonResult is one measurement in the machine-readable report. Seconds
// is the fastest repetition (the JGF headline); min/max/mean/stddev
// summarise all repetitions so a noisy run is distinguishable from a slow
// one when comparing reports across commits.
type jsonResult struct {
	Benchmark string  `json:"benchmark"`
	Version   string  `json:"version"`
	Threads   int     `json:"threads"`
	Seconds   float64 `json:"seconds"`
	MinSecs   float64 `json:"min_seconds"`
	MaxSecs   float64 `json:"max_seconds"`
	MeanSecs  float64 `json:"mean_seconds"`
	Stddev    float64 `json:"stddev_seconds"`
	Reps      int     `json:"reps"`
	Speedup   float64 `json:"speedup,omitempty"`
	Valid     bool    `json:"valid"`
	Error     string  `json:"error,omitempty"`
}

// jsonSchedStats is the scheduling-mechanism slice of the metrics
// registry, included in the report when the run was traced (-trace
// enables the registry for the run and reports its delta). It is what
// lets an asymmetry A/B compare mechanisms, not just wall time: a weighted
// carve that works shows up as fewer loop-range steals than the uniform
// carve under the same throttle.
type jsonSchedStats struct {
	StealAttempts uint64 `json:"steal_attempts"`
	Steals        uint64 `json:"steals"`
	StealProbes   uint64 `json:"steal_probes"`
	BarrierWaitNs uint64 `json:"barrier_wait_ns"`
}

// jsonReport is the -json output: enough metadata to compare runs across
// commits (the CI perf trajectory) plus every measurement. HotTeams and
// Schedule record the runtime configuration of the run — numbers measured
// with pooled teams or a non-default schedule must not be compared
// against runs without them.
type jsonReport struct {
	Schema     int             `json:"schema"`
	Size       string          `json:"size"`
	Threads    []int           `json:"threads"`
	Reps       int             `json:"reps"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	GoVersion  string          `json:"go_version"`
	HotTeams   bool            `json:"hot_teams"`
	Schedule   string          `json:"schedule"`
	Asym       string          `json:"asym,omitempty"`
	Timestamp  string          `json:"timestamp"`
	SchedStats *jsonSchedStats `json:"sched_stats,omitempty"`
	Results    []jsonResult    `json:"results"`
}

func main() {
	size := flag.String("size", "test", "problem size: test, A or B")
	threadsFlag := flag.String("threads", fmt.Sprintf("1,%d", runtime.GOMAXPROCS(0)),
		"comma-separated team sizes")
	reps := flag.Int("reps", 3, "kernel repetitions (fastest kept)")
	only := flag.String("only", "",
		"comma-separated benchmark filter\n"+
			"(valid: crypt, lufact, series, sor, sparse, moldyn, montecarlo, raytracer)")
	jsonPath := flag.String("json", "", "write machine-readable results to this file")
	tracePath := flag.String("trace", "",
		"record the whole run and write a Chrome trace (load at ui.perfetto.dev) to this file")
	schedule := flag.String("schedule", "",
		"process-wide default schedule resolved by @For(schedule=runtime) constructs\n"+
			"(staticBlock, staticCyclic, dynamic, guided, steal, adaptive;\n"+
			"former names: auto = adaptive, weightedSteal = steal)")
	hotTeams := flag.Bool("hotteams", true, "reuse pooled worker teams across region entries")
	asym := flag.String("asym", "",
		"simulate an asymmetric machine: comma-separated worker:spins pairs\n"+
			"(e.g. 0:300 makes the worker with team ID 0 execute 300 extra\n"+
			"busy-work units per loop iteration, roughly modelling a slow core)")
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
	if *reps <= 0 {
		fmt.Fprintf(os.Stderr, "jgfbench: -reps must be > 0 (got %d): a run with zero repetitions measures nothing\n", *reps)
		os.Exit(2)
	}
	if *schedule != "" {
		k, err := aomplib.ParseSchedule(*schedule)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jgfbench: -schedule: %v\n", err)
			os.Exit(2)
		}
		if _, err := aomplib.SetDefaultSchedule(k); err != nil {
			fmt.Fprintf(os.Stderr, "jgfbench: -schedule=%s: %v\n", k, err)
			os.Exit(2)
		}
	}
	aomplib.SetHotTeams(*hotTeams)
	aomplib.SetAsymSpin(parseAsym(*asym))

	threads := parseThreads(*threadsFlag)
	benches := suite(*size)
	filter := parseOnly(*only, benches)

	table := harness.NewTable()
	failures := 0
	var all []harness.Measurement
	seqSecs := map[string]float64{}
	add := func(m harness.Measurement) {
		table.Add(record(&failures, m))
		all = append(all, m)
		if m.Version == harness.Seq {
			seqSecs[m.Benchmark] = m.Seconds
		}
	}
	runAll := func() {
		for _, b := range benches {
			if len(filter) > 0 && !filter[strings.ToLower(b.name)] {
				continue
			}
			fmt.Fprintf(os.Stderr, "running %s (seq)...\n", b.name)
			add(harness.Measure(b.name, harness.Seq, 1, b.seq(), *reps))
			for _, t := range threads {
				fmt.Fprintf(os.Stderr, "running %s (MT, %d threads)...\n", b.name, t)
				add(harness.Measure(b.name, harness.MT, t, b.mt(t), *reps))
				fmt.Fprintf(os.Stderr, "running %s (Aomp, %d threads)...\n", b.name, t)
				add(harness.Measure(b.name, harness.Aomp, t, b.aomp(t), *reps))
				if b.dep != nil {
					fmt.Fprintf(os.Stderr, "running %s (Aomp-DF, %d threads)...\n", b.name, t)
					add(harness.Measure(b.name, harness.AompDep, t, b.dep(t), *reps))
				}
				if b.par != nil {
					fmt.Fprintf(os.Stderr, "running %s (Parallel, %d threads)...\n", b.name, t)
					add(harness.Measure(b.name, harness.Par, t, b.par(t), *reps))
				}
			}
		}
	}
	var schedStats *jsonSchedStats
	if *tracePath != "" {
		traced := func() {
			// The tracer records the timeline and counts nothing; the
			// counts are the metrics registry's delta over the run.
			defer aomplib.EnableMetrics(aomplib.EnableMetrics(true))
			before := aomplib.ReadMetrics()
			runAll()
			m := aomplib.ReadMetrics()
			schedStats = &jsonSchedStats{
				StealAttempts: m.StealAttempts - before.StealAttempts,
				Steals:        m.Steals - before.Steals,
				StealProbes:   m.StealProbes - before.StealProbes,
				BarrierWaitNs: m.BarrierWait.SumNs - before.BarrierWait.SumNs,
			}
		}
		if err := traceRun(*tracePath, traced); err != nil {
			fmt.Fprintf(os.Stderr, "jgfbench: writing trace %s: %v\n", *tracePath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "jgfbench: wrote %s\n", *tracePath)
	} else {
		runAll()
	}

	fmt.Printf("\nFigure 13 — speed-up over sequential (size %s, GOMAXPROCS=%d, hotteams=%v)\n\n",
		*size, runtime.GOMAXPROCS(0), aomplib.HotTeamsEnabled())
	table.Render(os.Stdout)

	fmt.Printf("\nAomp vs JGF-MT relative time difference (paper: < 1%%):\n")
	for _, t := range threads {
		deltas := table.Deltas(t)
		var names []string
		for n := range deltas {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-12s %2d threads: %+6.2f%%\n", n, t, deltas[n]*100)
		}
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, *size, *asym, threads, *reps, schedStats, all, seqSecs); err != nil {
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

func writeJSON(path, size, asym string, threads []int, reps int,
	schedStats *jsonSchedStats, all []harness.Measurement, seqSecs map[string]float64) error {
	rep := jsonReport{
		Schema:     3,
		Size:       size,
		Threads:    threads,
		Reps:       reps,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		HotTeams:   aomplib.HotTeamsEnabled(),
		Schedule:   aomplib.DefaultSchedule().String(),
		Asym:       asym,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		SchedStats: schedStats,
	}
	for _, m := range all {
		r := jsonResult{
			Benchmark: m.Benchmark,
			Version:   string(m.Version),
			Threads:   m.Threads,
			Seconds:   m.Seconds,
			MinSecs:   m.Min,
			MaxSecs:   m.Max,
			MeanSecs:  m.Mean,
			Stddev:    m.Stddev,
			Reps:      m.Reps,
			Valid:     m.Err == nil,
		}
		if m.Err != nil {
			r.Error = m.Err.Error()
		}
		if m.Version != harness.Seq && m.Seconds > 0 {
			if s, ok := seqSecs[m.Benchmark]; ok {
				r.Speedup = s / m.Seconds
			}
		}
		rep.Results = append(rep.Results, r)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func record(failures *int, m harness.Measurement) harness.Measurement {
	if m.Err != nil {
		fmt.Fprintf(os.Stderr, "VALIDATION FAILURE %s/%s: %v\n", m.Benchmark, m.Version, m.Err)
		*failures++
	}
	return m
}
