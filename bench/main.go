// Command bench is the repository's one benchmark: five workloads, the
// end-to-end metrics a user of the library sees, and — on a traced run —
// the per-layer sheet that says where a delta lives. BENCHMARK.json at the
// repository root is its contract; bench/README.md says why each workload
// and metric exists.
//
//	go run ./bench -workload jgf-sync                  # end-to-end metrics
//	go run ./bench -workload jgf-sync -trace 1         # per-layer metrics + Chrome trace
//	go run ./bench -workload finegrain -quick          # test-sized, under a second
//	go run ./bench -selfcheck                          # two sets of runs must agree
//
// One process runs one workload, so the library's process-global knobs
// cannot leak between workloads. The last line of standard output is the
// result as one JSON object; everything else goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"aomplib"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	outDir   string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workload is what the five workloads have in common: cells to run in
// rounds, and rows to write from what the rounds measured. Building one
// is its set-up.
type workload interface {
	cells() []*cell
	rows(st *stats, rep *report)
}

var builders = map[string]func(env *runEnv) workload{
	"jgf-coarse":   func(env *runEnv) workload { return newJGF("jgf-coarse", coarseKernels(env.sc.quick), env) },
	"jgf-sync":     func(env *runEnv) workload { return newJGF("jgf-sync", syncKernels(env.sc.quick), env) },
	"finegrain":    func(env *runEnv) workload { return newFinegrain(env) },
	"serve-mix":    func(env *runEnv) workload { return newServe(env) },
	"reweave-live": func(env *runEnv) workload { return newReweave(env) },
}

func main() {
	var c config
	var trace int
	var selfcheck bool
	var runs int
	flag.StringVar(&c.workload, "workload", "", "one of jgf-coarse, jgf-sync, finegrain, serve-mix, reweave-live")
	flag.Int64Var(&c.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.IntVar(&c.seconds, "seconds", 16, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1: traced run — per-layer metrics and a Chrome trace in bench/out/")
	flag.BoolVar(&c.quick, "quick", false, "test-sized inputs and two rounds")
	flag.StringVar(&c.outDir, "out", "bench/out", "directory for trace files")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload as two independent sets and fail if an end-to-end metric moved by more than its bound")
	flag.IntVar(&runs, "runs", 3, "runs per workload and set for -selfcheck")
	flag.Parse()
	c.trace = trace != 0

	if selfcheck {
		os.Exit(selfCheck(c, runs, os.Stderr))
	}
	res, err := runBenchmark(c, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

// setUp builds the workload several times — at least three, then until a
// second is spent or fifty builds are done — and returns the last build
// with every build time. Between builds the hot-team pool is drained, so
// every repetition pays the same cold lease the first one did. Short
// set-ups repeat most: the median of three 100 µs samples would move with
// the host.
func setUp(env *runEnv, build func(*runEnv) workload) (workload, []float64) {
	var w workload
	var secs []float64
	total := 0.0
	for len(secs) < 3 || (total < 1 && len(secs) < 50) {
		aomplib.SetHotTeams(false)
		aomplib.SetHotTeams(true)
		runtime.GC()
		t0 := time.Now()
		w = build(env)
		d := time.Since(t0).Seconds()
		secs = append(secs, d)
		total += d
		if env.sc.quick {
			break
		}
	}
	return w, secs
}

// runBenchmark runs one workload and returns its result: the end-to-end
// metrics, or with c.trace the per-layer metrics.
func runBenchmark(c config, log io.Writer) (*result, error) {
	build, ok := builders[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", c.workload, workloadNames)
	}
	if err := checkProcs(); err != nil {
		return nil, err
	}
	if c.seconds < 1 || c.seconds > 60 {
		return nil, fmt.Errorf("-seconds %d: want 1 to 60", c.seconds)
	}
	width := teamWidth()
	fp, _ := json.Marshal(readFingerprint(c, width))
	fmt.Fprintf(log, "bench: %s\n", fp)

	steal0 := stealTicks()
	warmup := time.Duration(0)
	if !c.quick {
		warmup = warmMachine(width, 3*time.Second)
	}
	tl := &tally{}
	rep := newReport()
	env := &runEnv{seed: c.seed, width: width, tally: tl,
		sc: scale{quick: c.quick, budget: time.Duration(c.seconds) * time.Second, minRounds: 3, maxRounds: 1000, warm: true}}
	if c.quick {
		env.sc.minRounds, env.sc.maxRounds, env.sc.warm = 2, 2, false
	}
	defs := endToEndMetrics
	if c.trace {
		defs = perLayerMetrics
		env.tr = newTracer()
		env.main = env.tr.newTrack()
		env.sc.detail = true
		// The traced workload gets 5/8 of the time; the rest of the run is
		// the fixed-work sheet (about 5 s on the reference box).
		env.sc.budget = env.sc.budget * 5 / 8
	}

	if env.tr != nil {
		env.tr.on.Store(true)
	}
	env.main.begin("Setup")
	w, setups := setUp(env, build)
	env.main.end()
	if env.tr != nil {
		env.tr.on.Store(false)
	}
	st := runRounds(env, w.cells())
	passOverSeq, overRef, serialOverSeq := endToEnd(st)
	rep.setSamples("setup_s", setups)
	rep.set("pass_over_seq", passOverSeq)
	rep.setSamples("pass_ms", scaled(passPerRound(st), 1e3))
	rep.set("over_ref", overRef)
	rep.set("serial_over_seq", serialOverSeq)
	w.rows(st, rep)
	envRows(rep, st, warmup, steal0)

	if c.trace {
		spans := env.tr.all()
		tracedRows(rep, env, st, spans)
		// Every other workload, one round each, for its per-layer rows.
		for _, name := range workloadNames {
			if name == c.workload {
				continue
			}
			sheet := &runEnv{seed: c.seed, width: width, tally: tl,
				sc: scale{quick: c.quick, minRounds: 1, maxRounds: 1, detail: true}}
			other := builders[name](sheet)
			other.rows(runRounds(sheet, other.cells()), rep)
		}
		layerSheet(env, rep)
		path, err := writeChrome(c.outDir, c.workload, spans, env.counts.n)
		if err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(log, "bench: wrote %s (%d spans, %d dropped)\n", path, len(spans), env.tr.dropped.Load())
	}

	fmt.Fprintf(log, "bench: %s seed %d: %d rounds in %.1fs, %d checks, %d failed\n",
		c.workload, c.seed, len(st.traced), st.elapsed.Seconds(), tl.attempted, tl.failed)
	if tl.failed > 0 {
		fmt.Fprintf(log, "bench: first failure: %s\n", tl.first)
	}
	rep.print(log)
	metrics, err := rep.pick(defs)
	if err != nil {
		return nil, err
	}
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: metrics}, nil
}

// envRows are the host-noise rows: read them before believing any delta.
func envRows(rep *report, st *stats, warmup time.Duration, steal0 float64) {
	rep.setSamples("env.spin_ms", scaled(st.spin, 1e3))
	lo, hi := minMax(st.spin)
	rep.set("env.spin_spread", share(hi, lo))
	rep.set("env.steal_ticks", stealTicks()-steal0)
	rep.set("env.warmup_ms", warmup.Seconds()*1e3)
	// The widest max/min among the sequential rows: nothing in the code
	// under test differs between those samples, so this is the noise floor.
	worst := 1.0
	for key, xs := range st.samples {
		if key.role == roleSeq {
			lo, hi := minMax(xs)
			if s := share(hi, lo); s > worst {
				worst = s
			}
		}
	}
	rep.set("env.seq_spread", worst)
}

// librarySpans are the span names that bracket a call into the library;
// every other span is the harness's own work (set-up, validation).
var librarySpans = map[string]bool{
	"Kernel": true, "Weave": true, "Unweave": true, "op": true, "calls": true,
	"EnterTenant": true, "serve": true, "Exit": true,
	"SetAdviceEnabled": true, "Use/RemoveAspect": true, "Unweave+Weave": true,
}

// tracedRows are the rows only a traced run has: the runtime's counts over
// the traced rounds, what tracing cost, and the span self times.
func tracedRows(rep *report, env *runEnv, st *stats, spans []span) {
	n := env.counts.n
	rep.set("rt.regions", n["regions"])
	rep.set("rt.barrier_waits", n["barrier_waits"])
	rep.set("rt.barrier_wait_ms", n["barrier_wait_ns"]/1e6)
	rep.set("rt.loop_encounters", n["loop_shares"])
	rep.set("rt.steal_attempts", n["steal_attempts"])
	rep.set("rt.steal_success_share", share(n["steals"], n["steal_attempts"]))
	rep.set("rt.tasks_spawned", n["tasks_spawned"])
	rep.set("rt.region_p50_us", env.counts.regionLat.quantile(0.5)/1e3)

	var on, off []float64
	for i, p := range passPerRound(st) {
		if st.traced[i] {
			on = append(on, p)
		} else {
			off = append(off, p)
		}
	}
	rep.set("obs.trace_overhead_share", share(median(on), median(off))-1)

	lib, harness := 0.0, 0.0
	for name, ns := range selfTimes(spans) {
		if librarySpans[name] {
			lib += float64(ns)
		} else {
			harness += float64(ns)
		}
	}
	rep.set("trace.spans", float64(len(spans)))
	rep.set("trace.library_self_ms", lib/1e6)
	rep.set("trace.harness_self_ms", harness/1e6)
}
