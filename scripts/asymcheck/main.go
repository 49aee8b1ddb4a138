// Command asymcheck is a ratio gate over two jgfbench -json reports: a
// baseline run and a candidate run of the same benchmark under the same
// -asym throttle, typically differing only in -schedule. It fails when the
// candidate is slower than the baseline by more than a tolerance.
//
//	go run ./scripts/asymcheck baseline.json candidate.json
//	go run ./scripts/asymcheck -bench SOR -maxratio 1.10 baseline.json candidate.json
//
// The gate is a tolerance (candidate ≤ baseline × maxratio), not a strict
// win, by design: on a time-shared CPU — one hardware thread running
// every worker, the common CI shape — work-conserving stealing re-feeds
// a throttled worker during its own scheduler slices no matter how the
// initial ranges were carved, so wall time converges to total executed
// work and a better schedule shows up as parity, not speedup. The speed
// carve's correctness (proportional ranges, most-loaded victim selection)
// is pinned deterministically by the dispenser unit tests in
// internal/sched; this gate catches the regression that matters at the
// system level: a self-tuning schedule must never make the whole run
// meaningfully slower than the hand-picked baseline.
//
// Exit codes: 0 pass, 1 gate failure, 2 unusable input — missing file,
// unparseable report, benchmark absent, reports measured under a different
// -asym or -size — so a broken pipeline can never read as a green gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// The slice of jgfbench's report schema the gate reads. Decoding into a
// local mirror keeps the tool usable on any schema version that still
// carries these fields.
type report struct {
	Schema     int         `json:"schema"`
	Size       string      `json:"size"`
	Schedule   string      `json:"schedule"`
	Asym       string      `json:"asym"`
	SchedStats *schedStats `json:"sched_stats"`
	Results    []result    `json:"results"`
}

type schedStats struct {
	StealAttempts uint64 `json:"steal_attempts"`
	Steals        uint64 `json:"steals"`
	StealProbes   uint64 `json:"steal_probes"`
	BarrierWaitNs uint64 `json:"barrier_wait_ns"`
}

type result struct {
	Benchmark string  `json:"benchmark"`
	Version   string  `json:"version"`
	Threads   int     `json:"threads"`
	MeanSecs  float64 `json:"mean_seconds"`
	Valid     bool    `json:"valid"`
}

var (
	bench = flag.String("bench", "SOR",
		"benchmark name to gate on (jgfbench report naming)")
	version = flag.String("version", "Aomp",
		"result version to gate on; Aomp is the woven variant that obeys -schedule")
	maxRatio = flag.Float64("maxratio", 1.10,
		"fail when candidate mean seconds exceed baseline × this ratio")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: asymcheck [flags] <baseline.json> <candidate.json>\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	if !(*maxRatio > 0) {
		fatalf("-maxratio %v is not a positive number", *maxRatio)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	cand, err := load(flag.Arg(1))
	if err != nil {
		fatalf("%v", err)
	}
	if base.Asym != cand.Asym || base.Size != cand.Size {
		fatalf("reports differ in what they measured: asym %q vs %q, size %q vs %q",
			orNone(base.Asym), orNone(cand.Asym), base.Size, cand.Size)
	}
	bSecs, err := parallelMean(flag.Arg(0), base, *bench, *version)
	if err != nil {
		fatalf("%v", err)
	}
	cSecs, err := parallelMean(flag.Arg(1), cand, *bench, *version)
	if err != nil {
		fatalf("%v", err)
	}

	ratio := cSecs / bSecs
	fmt.Printf("asymcheck: %s (asym %q)\n", *bench, orNone(base.Asym))
	fmt.Printf("  baseline  (%s): %.6fs\n", base.Schedule, bSecs)
	fmt.Printf("  candidate (%s): %.6fs\n", cand.Schedule, cSecs)
	fmt.Printf("  ratio candidate/baseline: %.3f (gate ≤ %.3f)\n", ratio, *maxRatio)
	printStats("baseline", base.SchedStats)
	printStats("candidate", cand.SchedStats)
	if ratio > *maxRatio {
		fmt.Printf("FAIL: candidate schedule is %.1f%% slower than baseline under the same asymmetry\n",
			(ratio-1)*100)
		os.Exit(1)
	}
	fmt.Println("ok")
}

// parallelMean returns the mean seconds of bench's version results at
// the widest thread count the report holds, erring when the report
// cannot answer — a gate with no measurement must not pass. The version
// matters: only the woven "Aomp" variants run under the schedule the
// -schedule flag declared; gating on the hand-threaded "JGF-MT"
// baseline would compare two identical runs.
func parallelMean(path string, rep *report, bench, version string) (float64, error) {
	best := result{Threads: -1}
	for _, r := range rep.Results {
		if r.Benchmark == bench && r.Version == version && r.Threads > best.Threads {
			best = r
		}
	}
	switch {
	case best.Threads < 0:
		return 0, fmt.Errorf("%s: no %s result for benchmark %q", path, version, bench)
	case !best.Valid:
		return 0, fmt.Errorf("%s: %s result at %d threads failed validation", path, bench, best.Threads)
	case !(best.MeanSecs > 0):
		return 0, fmt.Errorf("%s: %s mean_seconds is %v, not a positive time", path, bench, best.MeanSecs)
	}
	return best.MeanSecs, nil
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: parsing report: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s: report holds no results", path)
	}
	return &rep, nil
}

// printStats reports the steal counters informationally. They are not
// gated: on a time-shared CPU the loaded-victim scan probes more
// siblings per steal by design, so probe and steal counts move with
// scheduler interleaving, not with the property the gate protects.
func printStats(label string, s *schedStats) {
	if s == nil {
		return
	}
	fmt.Printf("  %s sched_stats: steals %d/%d attempts, %d probes, barrier wait %dns\n",
		label, s.Steals, s.StealAttempts, s.StealProbes, s.BarrierWaitNs)
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asymcheck: "+format+"\n", args...)
	os.Exit(2)
}
