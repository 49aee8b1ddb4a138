// Command gates holds the layer budgets — one table of what each layer
// between a direct call and a finished loop may cost — and runs it. A row
// bounds a benchmark's allocs/op, its time as a multiple of a baseline
// benchmark's, or both. DESIGN.md § Layer budgets is the table rendered as
// markdown; a test keeps the two equal.
//
//	go run ./scripts/gates      (from the module root; no flags)
//
// A benchmark runs as many times as the largest best-of-N of the rows
// naming it, one run per round: each round is one `go test -bench
// -benchmem` of every package with a benchmark still to run, so a ratio's
// benchmark and baseline alternate instead of timing their runs apart. A
// ratio is fastest run over the baseline's fastest, so the clock cancels
// out; an allocs bound holds in every run, and so does a floor on a metric
// the benchmark reports (floors): only timed runs print a result line, so
// calibration rounds are never judged. `Task*` names every benchmark with
// that prefix (at least one). A `gate` row that misses its bound fails; a
// `target` row only prints, so making it a gate is a one-word change.
//
// Exit codes: 0 pass, 1 gate failure, 2 unusable input — `go test` failed
// or printed FAIL, a line did not parse, or a benchmark is absent or ran
// fewer times than its best-of-N — so a broken pipeline never reads green.
// (`go run` reports a non-zero code as "exit status N" and exits 1.)
package main

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// row is one layer budget.
type row struct {
	layer, pkg, bench string
	allocs            int     // most allocs/op in any run; none: unchecked
	basePkg, base     string  // the ratio's baseline benchmark
	ratio             float64 // most fastest-run ns/op over the baseline's; 0: no ratio
	best              int     // runs of bench and base
	status            string  // gate or target
	why               string
}

const (
	none   = -1
	gate   = "gate"
	target = "target"

	root   = "."
	weaver = "./internal/weaver"
	core   = "./internal/core"
	rtPkg  = "./internal/rt"
	parPkg = "./parallel"
)

// table columns: layer, package, benchmark, allocs ≤, baseline package,
// baseline, ratio ≤, best of, status, why.
var table = []row{
	{"chain", weaver, "WovenCallWorkerAdviceInRegion", 0, "", "", 0, 1, gate, "a woven call in a region reifies a pooled Call and finds its worker"},
	{"chain", weaver, "WovenCallEnabledAdvice", 0, "", "", 0, 1, gate, "a live chain reifies a pooled Call"},
	{"unplugged", weaver, "UnwovenCall", 0, "", "", 0, 1, gate, "an unwoven method is direct: its entry point calls the registered body, no Call"},
	{"unplugged", weaver, "WovenCallDisabledAdvice", 0, "", "", 0, 1, gate, "a chain whose every advice is disabled is direct too"},
	{"unplugged", root, "Overhead_UnwovenMethod", none, root, "Overhead_DirectCall", 6, 5, gate, "a registered but unwoven method costs at most six plain closure calls"},
	{"unplugged", root, "Overhead_RegionEntryDisabled", none, root, "Overhead_DirectCall", 6, 5, gate, "so does a region entry with its advice switched off"},
	{"encounter", core, "Encounter_Single", 0, "", "", 0, 1, gate, "meeting a woven construct in an open region takes no lock, no map, no allocation"},
	{"encounter", core, "Encounter_MasterValue", 0, "", "", 0, 1, gate, "value @Master: the claimer's result reaches every worker"},
	{"encounter", core, "Encounter_ForDynamic16", 0, "", "", 0, 1, gate, "@For is gated under every kind ForContext.Next serves: dynamic,16"},
	{"encounter", core, "Encounter_ForGuided", 0, "", "", 0, 1, gate, "@For, guided"},
	{"encounter", core, "Encounter_ForSteal", 0, "", "", 0, 1, gate, "@For, steal"},
	{"encounter", core, "Encounter_ForStatic", 0, "", "", 0, 1, gate, "@For, static block"},
	{"encounter", core, "Encounter_ForCyclic", 0, "", "", 0, 1, gate, "@For, static cyclic"},
	{"encounter", core, "Encounter_ThreadLocalGet", 0, weaver, "WovenCallWorkerAdviceInRegion", 0.9, 5, gate, "a sole-stage thread-local get reifies no Call: 0.52–0.75× on 2 vCPUs, the reified one was 1.2–1.4×"},
	{"encounter", core, "Encounter_ThreadLocalGetStacked", 0, "", "", 0, 1, gate, "the same get with a second advice stacked, reified"},
	{"encounter", core, "Encounter_Reduce", 0, "", "", 0, 1, gate, "thread-local access + @Reduce: one barrier, the merge inside it"},
	{"encounter", root, "Ablation_ConstructInstance", 0, root, "Ablation_CompositeOpHandSolo", 1.4, 5, gate, "rt bookkeeping of one encounter at T=2 over a one-goroutine yardstick, which has no cross-vCPU handoff and so no fast mode: 0.63–0.81× with share clocks, 0.39–0.49× without; the map-and-mutex path ≈2×"},
	{"composite", root, "Ablation_CompositeOp", 0, "", "", 0, 1, gate, "finegrain's op: region, dynamic @For, @Reduce, barrier, @Single, two @Task, @TaskWait"},
	{"team of one", root, "Ablation_CompositeOpSolo", 0, root, "Ablation_CompositeOp", 0.35, 5, gate, "a pooled team of one pays for no team-mates: 0.28–0.31×, 0.40× with a claim-by-claim loop"},
	{"team of one", root, "Ablation_CompositeOpNarrowed", 0, root, "Ablation_CompositeOpHandSolo", 1.2, 5, gate, "the op narrowed vs by hand on one goroutine: width 1 at the cost of hand-written width 1, its tasks undeferred"},
	{"schedule", root, "Schedule_SOR_Adaptive", none, root, "Schedule_SOR_StaticBlock", 1.2, 5, gate, "the woven SOR kernel self-tuned costs at most a fifth more than under a hand-picked kind: static blocks"},
	{"schedule", root, "Schedule_SOR_Adaptive", none, root, "Schedule_SOR_Dynamic", 1.2, 5, gate, "SOR, dynamic"},
	{"schedule", root, "Schedule_SOR_Adaptive", none, root, "Schedule_SOR_Steal", 1.2, 5, gate, "SOR, steal"},
	{"schedule", root, "Schedule_LUFact_Adaptive", none, root, "Schedule_LUFact_StaticBlock", 1.2, 5, gate, "LUFact's shrinking elimination loop, static blocks"},
	{"schedule", root, "Schedule_LUFact_Adaptive", none, root, "Schedule_LUFact_Dynamic", 1.2, 5, gate, "LUFact, dynamic"},
	{"schedule", root, "Schedule_LUFact_Adaptive", none, root, "Schedule_LUFact_Steal", 1.2, 5, gate, "LUFact, steal"},
	{"region", root, "Overhead_RegionEntry", 0, "", "", 0, 1, gate, "hot teams keep warm region entry, facade dispatch included, allocation-free"},
	{"region", rtPkg, "RegionEntryWarm", 0, "", "", 0, 1, gate, "the runtime's warm region entry"},
	{"team of one", rtPkg, "RegionEntryWarmGrain", 0, "", "", 0, 1, gate, "an empty region with a width record, run narrow on the record's team of one"},
	{"task", rtPkg, "Task*", 0, "", "", 0, 1, gate, "pooled tasks, dependence nodes and objects: spawn, wait and release allocate nothing, with metrics and tracer on too"},
	{"metrics", root, "Overhead_RegionEntryMetrics", 0, "", "", 0, 1, gate, "recording metrics allocates nothing: preallocated padded shards"},
	{"metrics", root, "Overhead_RegionEntryMetrics", none, root, "Overhead_RegionEntry", 1.10, 5, target, "ROADMAP item 4: metrics on costs at most a tenth more"},
	{"metrics", rtPkg, "RegionEntryWarmMetrics", 0, "", "", 0, 1, gate, "each latency sample is one record's start and end, no pairing table"},
	{"trace", root, "Overhead_RegionEntryTraced", 0, "", "", 0, 1, gate, "tracing writes fixed-size records into preallocated per-worker rings"},
	{"trace", root, "Overhead_RegionEntryTraced", none, root, "Overhead_RegionEntry", 1.5, 5, target, "ROADMAP item 4: the tracer costs at most half again"},
	{"trace", rtPkg, "RegionEntryWarmTraced", 0, "", "", 0, 1, gate, "the trace restarts periodically, so the record path is measured, not the drop path"},
	{"trace", rtPkg, "RegionEntryWarmTracedMetrics", 0, "", "", 0, 1, gate, "tracer and metrics registry both on"},
	{"parallel", parPkg, "Overhead_ParallelFor", 0, "", "", 0, 1, gate, "pooled region arguments and entry structs, cached dictionary closures"},
	{"parallel", parPkg, "Overhead_ParallelForIndex", 0, "", "", 0, 1, gate, "the index form of For"},
	{"parallel", parPkg, "Overhead_ParallelReduce", 0, "", "", 0, 1, gate, "Reduce's entry"},
	{"parallel", parPkg, "ParallelForSteal", 0, "", "", 0, 1, gate, "the steal dispenser is re-armed in its encounter slot, not allocated"},
}

// floors holds every timed run of a benchmark to a least value of one of
// its custom metrics.
var floors = map[key]floor{
	{root, "Ablation_CompositeOpNarrowed"}: {"narrow-share", 0.98},
}

type (
	// result is one run of one benchmark: ns/op, allocs/op and the custom
	// metrics by unit.
	result struct {
		ns, allocs float64
		metrics    map[string]float64
	}
	// floor is a least value of a custom metric, by unit.
	floor struct {
		unit string
		min  float64
	}
	// key is a package and a benchmark name without its -GOMAXPROCS suffix.
	key     struct{ pkg, name string }
	results map[key][]result
	// benchFunc runs names in pkg once and returns go test's output.
	benchFunc func(pkg string, names []string) (string, error)
	// verdict is one row's outcome: PASS, FAIL, TARGET (a target missed)
	// or MISSING (unusable input).
	verdict struct{ word, measured string }
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/gates (no arguments)")
		os.Exit(2)
	}
	os.Exit(gates(os.Stdout, table, goTest))
}

// gates runs and judges rows, prints one line per row, verdict first, and
// returns the exit code.
func gates(w io.Writer, rows []row, bench benchFunc) int {
	res, err := runAll(rows, bench)
	if err != nil {
		fmt.Fprintln(w, "gates:", err)
		return 2
	}
	code := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, r := range rows {
		v := judge(r, res)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s %s\t%s\n", v.word, r.status, r.layer, r.pkg, r.bench, v.measured)
		if v.word == "MISSING" {
			code = 2
		} else if v.word == "FAIL" {
			code = max(code, 1)
		}
	}
	tw.Flush()
	return code
}

func goTest(pkg string, names []string) (string, error) {
	pat := pattern(names)
	fmt.Printf("$ go test -run '^$' -bench '%s' -benchmem %s\n", pat, pkg)
	var out bytes.Buffer
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pat, "-benchmem", pkg)
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = cmd.Stdout
	err := cmd.Run()
	return out.String(), err
}

// pattern is a -bench expression for exactly names, as a top-level
// alternation so that a sub-benchmark name splits at its slash.
func pattern(names []string) string {
	alts := make([]string, len(names))
	for i, n := range names {
		if p, ok := strings.CutSuffix(n, "*"); ok {
			alts[i] = "^Benchmark" + regexp.QuoteMeta(p)
			continue
		}
		parts := strings.Split("Benchmark"+n, "/")
		for j, p := range parts {
			parts[j] = "^" + regexp.QuoteMeta(p) + "$"
		}
		alts[i] = strings.Join(parts, "/")
	}
	return strings.Join(alts, "|")
}

// runAll runs every benchmark the rows name, as benchmark or baseline, in
// rounds: round i runs, package by package, each benchmark that some row
// wants more than i runs of.
func runAll(rows []row, bench benchFunc) (results, error) {
	count, rounds := map[key]int{}, 0
	for _, r := range rows {
		rounds = max(rounds, r.best)
		count[key{r.pkg, r.bench}] = max(count[key{r.pkg, r.bench}], r.best)
		if r.ratio > 0 {
			count[key{r.basePkg, r.base}] = max(count[key{r.basePkg, r.base}], r.best)
		}
	}
	res := results{}
	for round := 0; round < rounds; round++ {
		names := map[string][]string{}
		for k, n := range count {
			if n > round {
				names[k.pkg] = append(names[k.pkg], k.name)
			}
		}
		for _, pkg := range slices.Sorted(maps.Keys(names)) {
			slices.Sort(names[pkg])
			out, err := bench(pkg, names[pkg])
			got, perr := parse(out)
			if err = errors.Join(err, perr); err != nil {
				return nil, fmt.Errorf("go test %s: %v", pkg, err)
			}
			for name, rs := range got {
				res[key{pkg, name}] = append(res[key{pkg, name}], rs...)
			}
		}
	}
	return res, nil
}

var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// parse reads go test -bench -benchmem output. A result line is a name,
// an iteration count and (value, unit) pairs in any order: custom metrics
// such as narrow-share sit between ns/op and B/op.
func parse(out string) (map[string][]result, error) {
	runs := map[string][]result{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case f[0] == "FAIL" || strings.Contains(line, "--- FAIL") || strings.HasPrefix(f[0], "panic:"):
			return nil, fmt.Errorf("a benchmark failed: %q", line)
		case strings.HasPrefix(f[0], "Benchmark"):
			r, ok := result{ns: -1, allocs: -1, metrics: map[string]float64{}}, len(f)%2 == 0
			for i := 2; ok && i < len(f); i += 2 {
				v, err := strconv.ParseFloat(f[i], 64)
				ok = err == nil
				switch f[i+1] {
				case "ns/op":
					r.ns = v
				case "allocs/op":
					r.allocs = v
				case "B/op":
				default:
					r.metrics[f[i+1]] = v
				}
			}
			if !ok || r.ns < 0 || r.allocs < 0 {
				return nil, fmt.Errorf("not a result with ns/op and allocs/op (run without -benchmem?): %q", line)
			}
			name := procSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), "")
			runs[name] = append(runs[name], r)
		}
	}
	return runs, nil
}

func judge(r row, res results) verdict {
	runs, err := find(res, r.pkg, r.bench, r.best)
	if err != nil {
		return verdict{"MISSING", err.Error()}
	}
	var parts []string
	ok := true
	if r.allocs != none {
		worst := slices.MaxFunc(runs, func(a, b result) int { return cmp.Compare(a.allocs, b.allocs) }).allocs
		parts = append(parts, fmt.Sprintf("%g allocs/op (≤ %d)", worst, r.allocs))
		ok = worst <= float64(r.allocs)
	}
	if f, has := floors[key{r.pkg, r.bench}]; has {
		least := math.Inf(1)
		for _, run := range runs {
			v, reported := run.metrics[f.unit]
			if !reported {
				return verdict{"MISSING", fmt.Sprintf("a run of %s reports no %s", r.bench, f.unit)}
			}
			least = min(least, v)
		}
		parts = append(parts, fmt.Sprintf("%g %s (≥ %g)", least, f.unit, f.min))
		ok = ok && least >= f.min
	}
	if r.ratio > 0 {
		base, err := find(res, r.basePkg, r.base, r.best)
		if err != nil {
			return verdict{"MISSING", err.Error()}
		}
		q := fastest(runs) / fastest(base)
		parts = append(parts, fmt.Sprintf("%.2f× %s (≤ %g×)", q, r.base, r.ratio))
		ok = ok && q <= r.ratio
	}
	word := "PASS"
	if !ok {
		word = map[string]string{gate: "FAIL", target: "TARGET"}[r.status]
	}
	return verdict{word, strings.Join(parts, ", ")}
}

// find returns every run of name in pkg, each benchmark having run at
// least best times; a name ending in * matches every name with its prefix.
func find(res results, pkg, name string, best int) ([]result, error) {
	var runs []result
	for k, rs := range res {
		if p, ok := strings.CutSuffix(name, "*"); k.pkg == pkg && (k.name == name || ok && strings.HasPrefix(k.name, p)) {
			if len(rs) < best {
				return nil, fmt.Errorf("%s ran %d times, want %d", k.name, len(rs), best)
			}
			runs = append(runs, rs...)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no %s in the output of %s", name, pkg)
	}
	return runs, nil
}

func fastest(runs []result) float64 {
	return slices.MinFunc(runs, func(a, b result) int { return cmp.Compare(a.ns, b.ns) }).ns
}
