package main

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// rootOutput and rtOutput are go test -bench -benchmem output captured on a
// 2-vCPU box: the -2 GOMAXPROCS suffix, the custom metrics narrow-share and
// ns/worker-encounter between ns/op and B/op, a sub-benchmark, and three
// names that share the Overhead_RegionEntry prefix.
const rootOutput = `goos: linux
goarch: amd64
pkg: aomplib
cpu: Intel(R) Xeon(R) Processor
BenchmarkOverhead_RegionEntry-2           	     200	      2752 ns/op	      33 B/op	       0 allocs/op
BenchmarkOverhead_RegionEntry-2           	     200	      1391 ns/op	       4 B/op	       0 allocs/op
BenchmarkOverhead_RegionEntryTraced-2     	     200	      2079 ns/op	       0 B/op	       0 allocs/op
BenchmarkOverhead_RegionEntryTraced-2     	     200	      3030 ns/op	       1 B/op	       0 allocs/op
BenchmarkOverhead_RegionEntryMetrics-2    	     200	      2363 ns/op	       1 B/op	       0 allocs/op
BenchmarkOverhead_RegionEntryMetrics-2    	     200	      2656 ns/op	       1 B/op	       0 allocs/op
BenchmarkAblation_ConstructInstance-2     	     200	      1039 ns/op	       513.8 ns/worker-encounter	       7 B/op	       0 allocs/op
BenchmarkAblation_ConstructInstance-2     	     200	       739.2 ns/op	       366.1 ns/worker-encounter	       7 B/op	       0 allocs/op
BenchmarkAblation_CompositeOpNarrowed-2   	     200	      2407 ns/op	         1.000 narrow-share	       0 B/op	       0 allocs/op
BenchmarkAblation_CompositeOpNarrowed-2   	     200	      1300 ns/op	         0.9950 narrow-share	       0 B/op	       0 allocs/op
PASS
ok  	aomplib	0.071s
`

const rtOutput = `goos: linux
goarch: amd64
pkg: aomplib/internal/rt
cpu: Intel(R) Xeon(R) Processor
BenchmarkBarrierPhase/w=2-2         	     200	       347.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkBarrierPhase/w=2-2         	     200	       412.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkRegionEntryWarm-2   	     100	      1374 ns/op	      52 B/op	       0 allocs/op
PASS
ok  	aomplib/internal/rt	0.004s
`

// fixed answers every go test of a package with that package's output.
func fixed(outputs map[string]string) benchFunc {
	return func(pkg string, _ []string) (string, error) { return outputs[pkg], nil }
}

// onlyFirst answers the first go test with out and every later one with
// no result lines.
func onlyFirst(out string) benchFunc {
	calls := 0
	return func(string, []string) (string, error) {
		if calls++; calls > 1 {
			return "PASS\n", nil
		}
		return out, nil
	}
}

// runGates runs gates over rows and returns each row's verdict word, the
// output and the exit code.
func runGates(t *testing.T, rows []row, bench benchFunc) ([]string, string, int) {
	t.Helper()
	var out bytes.Buffer
	code := gates(&out, rows, bench)
	var words []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		words = append(words, strings.Fields(line)[0])
	}
	if code != 2 && len(words) != len(rows) {
		t.Fatalf("%d lines for %d rows:\n%s", len(words), len(rows), out.String())
	}
	return words, out.String(), code
}

func TestParseReadsUnitsNotPositions(t *testing.T) {
	runs, err := parse(rootOutput)
	if err != nil {
		t.Fatal(err)
	}
	per := func(unit string, v float64) map[string]float64 { return map[string]float64{unit: v} }
	want := map[string][]result{
		"Overhead_RegionEntry":         {{2752, 0, nil}, {1391, 0, nil}},
		"Overhead_RegionEntryTraced":   {{2079, 0, nil}, {3030, 0, nil}},
		"Overhead_RegionEntryMetrics":  {{2363, 0, nil}, {2656, 0, nil}},
		"Ablation_ConstructInstance":   {{1039, 0, per("ns/worker-encounter", 513.8)}, {739.2, 0, per("ns/worker-encounter", 366.1)}},
		"Ablation_CompositeOpNarrowed": {{2407, 0, per("narrow-share", 1)}, {1300, 0, per("narrow-share", 0.995)}},
	}
	if fmt.Sprint(runs) != fmt.Sprint(want) {
		t.Errorf("parsed %v, want %v", runs, want)
	}
	if runs, err = parse(rtOutput); err != nil || len(runs["BarrierPhase/w=2"]) != 2 {
		t.Errorf("sub-benchmark: parsed %v, %v; want two BarrierPhase/w=2 runs", runs, err)
	}
}

func TestPatternSelectsExactlyTheNames(t *testing.T) {
	got := pattern([]string{"BarrierPhase/w=2", "Task*", "RegionEntryWarm"})
	if want := `^BenchmarkBarrierPhase$/^w=2$|^BenchmarkTask|^BenchmarkRegionEntryWarm$`; got != want {
		t.Errorf("pattern = %s, want %s", got, want)
	}
}

// TestFixtureVerdicts: names match exactly (Overhead_RegionEntry is not
// judged by its Metrics sibling's allocations), a ratio is fastest over
// fastest, an allocs bound and a floor hold in every run, and a missed
// target does not fail the command.
func TestFixtureVerdicts(t *testing.T) {
	out := map[string]string{
		root:  strings.Replace(rootOutput, "2656 ns/op	       1 B/op	       0 allocs/op", "2656 ns/op	       1 B/op	       1 allocs/op", 1),
		rtPkg: rtOutput,
	}
	rows := []row{
		{"region", root, "Overhead_RegionEntry", 0, "", "", 0, 2, gate, ""},
		{"encounter", root, "Ablation_ConstructInstance", 0, rtPkg, "BarrierPhase/w=2", 3, 2, gate, ""},
		{"trace", root, "Overhead_RegionEntryTraced", none, root, "Overhead_RegionEntry", 1.10, 2, target, ""},
		{"metrics", root, "Overhead_RegionEntryMetrics", 0, "", "", 0, 2, gate, ""},
		{"team of one", root, "Ablation_CompositeOpNarrowed", 0, "", "", 0, 2, gate, ""},
	}
	words, text, code := runGates(t, rows, fixed(out))
	if want := []string{"PASS", "PASS", "TARGET", "FAIL", "PASS"}; fmt.Sprint(words) != fmt.Sprint(want) || code != 1 {
		t.Errorf("verdicts %v, exit %d; want %v, exit 1:\n%s", words, code, want, text)
	}
	for _, want := range []string{"2.13× BarrierPhase/w=2 (≤ 3×)", "1.49× Overhead_RegionEntry (≤ 1.1×)", "1 allocs/op (≤ 0)", "0.995 narrow-share (≥ 0.98)"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
}

// TestRunsAlternate: a row with best of N gets one go test per round for N
// rounds, and each round runs every package still owing a run, so a
// ratio's benchmark and baseline (in one package or two) alternate.
func TestRunsAlternate(t *testing.T) {
	rows := []row{
		{"r", root, "A", none, root, "B", 2, 3, gate, ""},
		{"c", core, "C", none, weaver, "D", 2, 2, gate, ""},
		{"a", rtPkg, "E", 0, "", "", 0, 1, gate, ""},
	}
	var calls []string
	bench := func(pkg string, names []string) (string, error) {
		calls = append(calls, pkg+" "+strings.Join(names, ","))
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "Benchmark%s-2\t1\t1000 ns/op\t0 B/op\t0 allocs/op\n", n)
		}
		return b.String(), nil
	}
	words, text, code := runGates(t, rows, bench)
	if code != 0 || fmt.Sprint(words) != "[PASS PASS PASS]" {
		t.Fatalf("verdicts %v, exit %d:\n%s", words, code, text)
	}
	want := []string{
		". A,B", core + " C", rtPkg + " E", weaver + " D",
		". A,B", core + " C", weaver + " D",
		". A,B",
	}
	if !slices.Equal(calls, want) {
		t.Errorf("go test calls\n%s\nwant\n%s", strings.Join(calls, "\n"), strings.Join(want, "\n"))
	}
}

func TestUnusableInputExits2(t *testing.T) {
	const failed = "BenchmarkAblation_CompositeOpNarrowed-2   \t--- FAIL: BenchmarkAblation_CompositeOpNarrowed-2\n" +
		"    bench_test.go:501: 150 of 200 ops ran on one worker (0.750), want at least 0.98\nFAIL\nexit status 1\nFAIL\taomplib\t0.050s\n"
	narrowed := []row{{"team of one", root, "Ablation_CompositeOpNarrowed", 0, "", "", 0, 1, gate, ""}}
	cases := []struct {
		name  string
		rows  []row
		bench benchFunc
		want  string
	}{
		{"b.Fatalf", narrowed, fixed(map[string]string{root: failed}), "a benchmark failed"},
		{"no -benchmem columns", narrowed, fixed(map[string]string{root: "BenchmarkAblation_CompositeOpNarrowed-2  200  1300 ns/op  0.9950 narrow-share\n"}), "run without -benchmem"},
		{"floor metric absent", narrowed, fixed(map[string]string{root: "BenchmarkAblation_CompositeOpNarrowed-2  200  1300 ns/op  0 B/op  0 allocs/op\n"}), "reports no narrow-share"},
		{"go test error", narrowed, func(string, []string) (string, error) { return "", errors.New("exit status 1") }, "exit status 1"},
		{"Task* matches nothing", []row{{"task", rtPkg, "Task*", 0, "", "", 0, 1, gate, ""}}, fixed(map[string]string{rtPkg: rtOutput}), "no Task* in the output"},
		{"baseline absent", []row{{"encounter", root, "Ablation_ConstructInstance", 0, rtPkg, "BarrierPhase/w=4", 3, 2, gate, ""}},
			fixed(map[string]string{root: rootOutput, rtPkg: rtOutput}), "no BarrierPhase/w=4"},
		{"fewer runs than best of", []row{{"region", rtPkg, "RegionEntryWarm", 0, "", "", 0, 5, gate, ""}}, onlyFirst(rtOutput), "ran 1 times, want 5"},
	}
	for _, c := range cases {
		_, text, code := runGates(t, c.rows, c.bench)
		if code != 2 || !strings.Contains(text, c.want) {
			t.Errorf("%s: exit %d, want 2 with %q in:\n%s", c.name, code, c.want, text)
		}
	}
}

var benchFuncCache = map[string][]string{}

// benchFuncs lists the top-level Benchmark funcs of a package's test
// files, without the Benchmark prefix.
func benchFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	if names, ok := benchFuncCache[pkg]; ok {
		return names
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join("..", "..", pkg), func(fi fs.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
					names = append(names, strings.TrimPrefix(fn.Name.Name, "Benchmark"))
				}
			}
		}
	}
	benchFuncCache[pkg] = names
	return names
}

// matching returns the benchmark funcs of pkg a row name stands for: the
// top-level func of a sub-benchmark, every func with a Task*-style prefix.
func matching(t *testing.T, pkg, name string) []string {
	var got []string
	top, _, _ := strings.Cut(name, "/")
	prefix, isPrefix := strings.CutSuffix(name, "*")
	for _, fn := range benchFuncs(t, pkg) {
		if fn == top || isPrefix && strings.HasPrefix(fn, prefix) {
			got = append(got, fn)
		}
	}
	return got
}

// TestGateBenchmarksExist: renaming a gated benchmark or baseline fails
// here, in the ordinary test run, before any benchmark runs.
func TestGateBenchmarksExist(t *testing.T) {
	for _, r := range table {
		if len(matching(t, r.pkg, r.bench)) == 0 {
			t.Errorf("%s row: no func Benchmark%s in %s", r.layer, r.bench, r.pkg)
		}
		if r.ratio > 0 && len(matching(t, r.basePkg, r.base)) == 0 {
			t.Errorf("%s row %s: no baseline func Benchmark%s in %s", r.layer, r.bench, r.base, r.basePkg)
		}
	}
	for k := range floors {
		if !slices.ContainsFunc(table, func(r row) bool { return r.pkg == k.pkg && r.bench == k.name }) {
			t.Errorf("the %s floor of %s %s belongs to no row, so nothing judges it", floors[k].unit, k.pkg, k.name)
		}
	}
}

// synthetic prints go test output for every row's benchmarks: one run
// each per go test, at 1000 ns/op, 0 allocs/op and a floored metric at its
// floor unless ns, firstAllocs or firstMetric (the first run's allocs/op
// and floored metric) say otherwise, all keyed by package and name. Task*
// stands for the package's real Task funcs.
type synthetic struct{ ns, firstAllocs, firstMetric map[string]float64 }

func (s synthetic) bench(t *testing.T) benchFunc {
	ran := map[string]bool{}
	return func(pkg string, names []string) (string, error) {
		var b strings.Builder
		for _, name := range names {
			expanded := []string{name}
			if strings.HasSuffix(name, "*") {
				expanded = matching(t, pkg, name)
			}
			for _, n := range expanded {
				k := pkg + " " + n
				ns, ok := s.ns[k]
				if !ok {
					ns = 1000
				}
				allocs, metric := 0.0, ""
				if !ran[k] {
					allocs = s.firstAllocs[k]
				}
				if f, floored := floors[key{pkg, n}]; floored {
					v, ok := s.firstMetric[k]
					if !ok || ran[k] {
						v = f.min
					}
					metric = fmt.Sprintf("\t%8g %s", v, f.unit)
				}
				ran[k] = true
				fmt.Fprintf(&b, "Benchmark%s-2\t    1000\t%12g ns/op%s\t       0 B/op\t%8g allocs/op\n", n, ns, metric, allocs)
			}
		}
		return b.String(), nil
	}
}

// TestEveryRowCanFail feeds the real table synthetic runs in which exactly
// one bound of one row is missed, for every bound of every row — an allocs
// bound or a floor in the first run only, a ratio through the baseline when
// another row times the same benchmark: that row alone must fail (exit 1)
// if it is a gate, or read TARGET (exit 0) if it is a target. No row
// passes vacuously.
func TestEveryRowCanFail(t *testing.T) {
	pass := synthetic{ns: map[string]float64{}, firstAllocs: map[string]float64{}, firstMetric: map[string]float64{}}
	for _, r := range table {
		k := r.pkg + " " + r.bench
		if old, ok := pass.ns[k]; r.ratio > 0 && (!ok || r.ratio*500 < old) {
			pass.ns[k] = r.ratio * 500
		}
	}
	for _, r := range table {
		if _, ok := pass.ns[r.basePkg+" "+r.base]; r.ratio > 0 && ok {
			t.Fatalf("baseline %s is also a ratio row's benchmark; these runs hold baselines at 1000 ns", r.base)
		}
	}
	if words, text, code := runGates(t, table, pass.bench(t)); code != 0 || !slices.Equal(words, slices.Repeat([]string{"PASS"}, len(table))) {
		t.Fatalf("passing runs: verdicts %v, exit %d:\n%s", words, code, text)
	}
	for i, r := range table {
		var broken []synthetic
		if r.allocs != none {
			s := synthetic{maps.Clone(pass.ns), map[string]float64{}, pass.firstMetric}
			names := matching(t, r.pkg, r.bench)
			s.firstAllocs[r.pkg+" "+names[len(names)-1]] = float64(r.allocs + 1)
			broken = append(broken, s)
		}
		if r.ratio > 0 {
			s := synthetic{maps.Clone(pass.ns), pass.firstAllocs, pass.firstMetric}
			k := r.pkg + " " + r.bench
			if slices.ContainsFunc(table, func(o row) bool { return o != r && o.ratio > 0 && o.pkg == r.pkg && o.bench == r.bench }) {
				s.ns[r.basePkg+" "+r.base] = pass.ns[k] / (r.ratio * 1.01)
			} else {
				s.ns[k] = r.ratio * 1010
			}
			broken = append(broken, s)
		}
		if f, ok := floors[key{r.pkg, r.bench}]; ok {
			s := synthetic{pass.ns, pass.firstAllocs, map[string]float64{r.pkg + " " + r.bench: f.min - 0.01}}
			broken = append(broken, s)
		}
		for _, s := range broken {
			words, text, code := runGates(t, table, s.bench(t))
			want, wantCode := "FAIL", 1
			if r.status == target {
				want, wantCode = "TARGET", 0
			}
			if words[i] != want || code != wantCode {
				t.Errorf("row %d (%s %s): %s, exit %d; want %s, exit %d:\n%s", i, r.bench, r.status, words[i], code, want, wantCode, text)
			}
			for j, w := range words {
				if j != i && w != "PASS" && w != "TARGET" {
					t.Errorf("breaking row %d (%s) also made row %d (%s) read %s", i, r.bench, j, table[j].bench, w)
				}
			}
		}
	}
}

// markdown renders rows as DESIGN.md's layer-budget table.
func markdown(rows []row) string {
	var b strings.Builder
	b.WriteString("| layer | package | benchmark | allocs ≤ | baseline | ratio ≤ | floor | best of | status | why |\n")
	b.WriteString("|---|---|---|---:|---|---:|---|---:|---|---|\n")
	for _, r := range rows {
		allocs, base, ratio, least := "—", "—", "—", "—"
		if r.allocs != none {
			allocs = strconv.Itoa(r.allocs)
		}
		if r.ratio > 0 {
			base, ratio = "`"+r.base+"`", strconv.FormatFloat(r.ratio, 'g', -1, 64)
			if r.basePkg != r.pkg {
				base += " (`" + r.basePkg + "`)"
			}
		}
		if f, ok := floors[key{r.pkg, r.bench}]; ok {
			least = fmt.Sprintf("%s ≥ %g", f.unit, f.min)
		}
		fmt.Fprintf(&b, "| %s | `%s` | `%s` | %s | %s | %s | %s | %d | %s | %s |\n",
			r.layer, r.pkg, r.bench, allocs, base, ratio, least, r.best, r.status, r.why)
	}
	return b.String()
}

// TestDesignTableMatchesGates: DESIGN.md § Layer budgets holds exactly
// this table, rendered.
func TestDesignTableMatchesGates(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	want := markdown(table)
	header, _, _ := strings.Cut(want, "\n")
	var got strings.Builder
	if _, after, ok := strings.Cut(string(doc), header+"\n"); ok {
		got.WriteString(header + "\n")
		for _, line := range strings.SplitAfter(after, "\n") {
			if !strings.HasPrefix(line, "|") {
				break
			}
			got.WriteString(line)
		}
	}
	if got.String() != want {
		t.Errorf("DESIGN.md § Layer budgets differs from the gates table; it should read:\n\n%s", want)
	}
}
