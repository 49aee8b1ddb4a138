package aomplib_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aomplib"
	"aomplib/internal/jgf/moldyn"
)

// TestPublicAPIQuickstart runs the README's quickstart through the facade.
func TestPublicAPIQuickstart(t *testing.T) {
	prog := aomplib.NewProgram("demo")
	cls := prog.Class("Demo")
	const n = 10_000
	hits := make([]atomic.Int32, n)
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			hits[i].Add(1)
		}
	})
	run := cls.Proc("run", func() { loop(0, n, 1) })

	prog.Use(aomplib.ParallelRegion("call(* Demo.run(..))").Threads(4))
	prog.Use(aomplib.ForShare("call(* Demo.loop(..))"))
	prog.MustWeave()
	run()
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
		}
	}
	// Sequential semantics restored.
	prog.Unweave()
	run()
	for i := range hits {
		if hits[i].Load() != 2 {
			t.Fatalf("unwoven iteration %d total %d, want 2", i, hits[i].Load())
		}
	}
}

// TestPublicAPIAnnotationStyle runs the same composition via annotations.
func TestPublicAPIAnnotationStyle(t *testing.T) {
	prog := aomplib.NewProgram("demo")
	cls := prog.Class("Demo")
	var count atomic.Int32
	work := cls.Proc("work", func() { count.Add(1) })
	prog.MustAnnotate("Demo.work", aomplib.Parallel{Threads: 3})
	prog.Use(aomplib.AnnotationAspects(prog)...)
	prog.MustWeave()
	work()
	if count.Load() != 3 {
		t.Fatalf("annotated region ran %d times, want 3", count.Load())
	}
}

// TestPublicAPIRuntimeHelpers exercises ThreadID/NumThreads/InParallel and
// the default team size through the facade.
func TestPublicAPIRuntimeHelpers(t *testing.T) {
	if aomplib.InParallel() || aomplib.ThreadID() != 0 || aomplib.NumThreads() != 1 {
		t.Fatal("sequential helpers wrong")
	}
	if aomplib.DefaultThreads() != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultThreads = %d, want GOMAXPROCS %d", aomplib.DefaultThreads(), runtime.GOMAXPROCS(0))
	}

	prog := aomplib.NewProgram("demo")
	var inside atomic.Int32
	region := prog.Class("D").Proc("r", func() {
		if aomplib.InParallel() && aomplib.NumThreads() == 2 {
			inside.Add(1)
		}
	})
	prog.Use(aomplib.ParallelRegion("call(* D.r(..))").Threads(2))
	prog.MustWeave()
	region()
	if inside.Load() != 2 {
		t.Fatalf("helpers saw wrong team: %d", inside.Load())
	}
}

// TestMolDynStrategiesIntegration runs the Figure 15 variants end to end.
func TestMolDynStrategiesIntegration(t *testing.T) {
	p := moldyn.SizeTest
	for _, s := range []moldyn.Strategy{
		moldyn.ThreadLocalStrategy, moldyn.CriticalStrategy, moldyn.LockPerParticleStrategy,
	} {
		in := moldyn.NewAomp(p, 2, s)
		in.Setup()
		in.Kernel()
		if err := in.Validate(); err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
	}
}

// TestProfilingWovenRegions is the regression test for a process crash:
// the profiler reads a sampled goroutine's label slot as its own label
// map, and inside a region that slot holds the runtime's worker binding.
// 50 ms of CPU profile over open regions, plus a labelled goroutine dump
// taken from inside one, must both come out well-formed.
func TestProfilingWovenRegions(t *testing.T) {
	prog := aomplib.NewProgram("profiled")
	cls := prog.Class("P")
	var dump bytes.Buffer
	var spun atomic.Int64
	region := cls.Proc("region", func() {
		x := 1.0
		for i := 0; i < 50_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		spun.Add(int64(x))
		if aomplib.ThreadID() == 0 && dump.Len() == 0 {
			if err := pprof.Lookup("goroutine").WriteTo(&dump, 1); err != nil {
				t.Error(err)
			}
		}
	})
	prog.Use(aomplib.ParallelRegion("call(* P.region(..))").Threads(2))
	prog.MustWeave()

	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for t0 := time.Now(); time.Since(t0) < 50*time.Millisecond; {
		region()
	}
	pprof.StopCPUProfile()
	if cpu.Len() == 0 || !bytes.Contains(dump.Bytes(), []byte("goroutine profile:")) {
		t.Fatalf("profiles incomplete: %d bytes of CPU profile, goroutine dump %q", cpu.Len(), dump.String())
	}
}

// TestFacadeKnobsHaveCallers holds the facade to its rule that a
// process-global switch nothing but tests uses is deleted: every exported
// Set*/Enable* func of package aomplib must be referenced from at least one
// non-test .go file of the module outside the facade's own aomplib.go and
// diag.go.
func TestFacadeKnobsHaveCallers(t *testing.T) {
	unused, n := funcsWithoutCallers(t, ".", "aomplib", isKnob)
	if n == 0 {
		t.Fatal("found no facade knobs to census: the census is looking in the wrong place")
	}
	for _, name := range unused {
		t.Errorf("facade knob %s has no caller outside tests: delete it", name)
	}
}

// TestFacadeReadersHaveCallers holds the facade's readers to the same
// rule: every exported func of package aomplib named Read*, Write*, *Stats
// or *Enabled must be referenced from a non-test .go file of the module
// outside aomplib.go and diag.go. A reader only tests call is a second
// view of a count some other reader already serves.
func TestFacadeReadersHaveCallers(t *testing.T) {
	unused, n := funcsWithoutCallers(t, ".", "aomplib", isReader)
	if n == 0 {
		t.Fatal("found no facade readers to census: the census is looking in the wrong place")
	}
	for _, name := range unused {
		t.Errorf("facade reader %s has no caller outside tests: delete it", name)
	}
}

// TestInternalKnobsHaveCallers applies the same rule to the packages the
// facade's knobs delegate to: an exported Set*/Enable* func of internal/rt,
// internal/obs or internal/sched needs a non-test caller outside its own
// package. A package may have no knob at all (internal/sched has none),
// but the three together must have some.
func TestInternalKnobsHaveCallers(t *testing.T) {
	total := 0
	for _, pkg := range []string{"internal/rt", "internal/obs", "internal/sched"} {
		unused, n := funcsWithoutCallers(t, pkg, "aomplib/"+pkg, isKnob)
		total += n
		for _, name := range unused {
			t.Errorf("%s.%s has no caller outside tests and its own package: delete it", pkg, name)
		}
	}
	if total == 0 {
		t.Fatal("found no internal knobs to census: the census is looking in the wrong place")
	}
}

// TestParallelEntryPointsHaveCallers holds the generic algorithms layer to
// the same rule: every exported top-level func of package parallel, its
// With* options aside, must be referenced from a non-test .go file outside
// parallel/ and examples/ — a benchmark, a kernel or a tool, not only its
// own tests and demos.
func TestParallelEntryPointsHaveCallers(t *testing.T) {
	notOption := func(name string) bool { return !strings.HasPrefix(name, "With") }
	unused, n := funcsWithoutCallers(t, "parallel", "aomplib/parallel", notOption, "examples")
	if n == 0 {
		t.Fatal("found no parallel entry points to census: the census is looking in the wrong place")
	}
	for _, name := range unused {
		t.Errorf("parallel.%s has no caller outside tests and examples: delete it", name)
	}
}

// TestFacadeConstructsHaveCallers holds the facade's constructs to the
// same rule. The census is every name of package aomplib that aliases a
// core construct constructor (var X = core.X) or a core annotation type
// (type X = core.X, aspect types aside). A reference counts as aomplib.X or
// core.X from a non-test .go file outside internal/core and the facade's
// own files. A paper construct — one named in a row of DESIGN.md §2 not
// marked "ext." — may be called from an examples/ program; an extension
// needs a kernel, a tool or bench/.
func TestFacadeConstructsHaveCallers(t *testing.T) {
	names := coreAliases(t, ".")
	if len(names) == 0 {
		t.Fatal("found no facade constructs to census: the census is looking in the wrong place")
	}
	paper := paperConstructs(t, "DESIGN.md")
	imports := []string{"aomplib", "aomplib/internal/core"}
	anywhere := references(t, ".", imports, "internal/core")
	outsideExamples := references(t, ".", imports, "internal/core", "examples")
	for _, name := range names {
		switch {
		case paper[name] && anywhere[name] == 0:
			t.Errorf("paper construct %s has no caller outside tests: call it from a kernel, a tool, bench/ or an examples/ program", name)
		case !paper[name] && outsideExamples[name] == 0:
			t.Errorf("extension %s has no caller outside tests and examples/: call it from a kernel, a tool or bench/, or delete it", name)
		}
	}
}

// coreAliases returns the names the package in dir declares as aliases of
// package core: var X = core.X, and type X = core.X for every X that does
// not end in "Aspect".
func coreAliases(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	for _, f := range parseDir(t, dir) {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				var name string
				var rhs ast.Expr
				switch sp := spec.(type) {
				case *ast.ValueSpec:
					if len(sp.Names) == 1 && len(sp.Values) == 1 {
						name, rhs = sp.Names[0].Name, sp.Values[0]
					}
				case *ast.TypeSpec:
					if sp.Assign.IsValid() && !strings.HasSuffix(sp.Name.Name, "Aspect") {
						name, rhs = sp.Name.Name, sp.Type
					}
				}
				if sel, ok := rhs.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "core" && sel.Sel.Name == name {
						names = append(names, name)
					}
				}
			}
		}
	}
	return names
}

// paperConstructs returns the identifiers named in the rows of the design
// document's §2 construct table that are not marked "ext.".
func paperConstructs(t *testing.T, design string) map[string]bool {
	t.Helper()
	text, err := os.ReadFile(design)
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(text), "\n## 2. ")
	if !ok {
		t.Fatalf("%s has no §2", design)
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	ident := regexp.MustCompile(`[A-Z][A-Za-z0-9]*`)
	paper := map[string]bool{}
	for _, line := range strings.Split(sec, "\n") {
		if strings.HasPrefix(line, "|") && !strings.Contains(line, "ext.") {
			for _, name := range ident.FindAllString(line, -1) {
				paper[name] = true
			}
		}
	}
	if len(paper) == 0 {
		t.Fatalf("%s §2 names no paper construct", design)
	}
	return paper
}

// The line budgets of the two documents a reader starts from. DESIGN.md
// says what each mechanism does, its invariant and its budget; README.md
// how to use and run the library. Measurements go to perf/ instead.
const (
	designMaxLines = 500
	readmeMaxLines = 300
)

// TestDocsWithinLineBudgets holds DESIGN.md and README.md to their budgets.
func TestDocsWithinLineBudgets(t *testing.T) {
	for doc, most := range map[string]int{"DESIGN.md": designMaxLines, "README.md": readmeMaxLines} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(text, []byte("\n")); n > most {
			t.Errorf("%s has %d lines, over its budget of %d", doc, n, most)
		}
	}
}

// TestDesignReferencesResolve: every reference to a section of DESIGN.md
// (see designRefErrors) in the Go sources, README.md, the CI workflow and
// the verify skill, and every "§N" inside DESIGN.md itself, names a section
// that exists; a quoted name after a number ("§4, \"A team of one\"") must
// appear in that section.
func TestDesignReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{"README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case strings.HasSuffix(path, ".go"):
			docs = append(docs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if os.IsNotExist(err) && strings.HasPrefix(doc, ".claude") {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		for _, e := range designRefErrors(string(design), string(text), false) {
			t.Errorf("%s: %s", doc, e)
		}
	}
	for _, e := range designRefErrors(string(design), string(design), true) {
		t.Errorf("DESIGN.md: %s", e)
	}
}

// TestReadmeFigure13MatchesPerf: README's Figure 13 table is exactly the
// committed size-A table in perf/figure13.md, row for row.
func TestReadmeFigure13MatchesPerf(t *testing.T) {
	perf, err := os.ReadFile(filepath.Join("perf", "figure13.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	for _, line := range strings.SplitAfter(string(perf), "\n") {
		if strings.HasPrefix(line, "|") {
			table.WriteString(line)
		} else if table.Len() > 0 {
			break
		}
	}
	if table.Len() == 0 {
		t.Fatal("perf/figure13.md holds no table")
	}
	if !strings.Contains(string(readme), "\n"+table.String()) {
		t.Errorf("README.md's Figure 13 table differs from perf/figure13.md's; it should read:\n\n%s", table.String())
	}
}

// TestDesignReferencesCatchDangling: the checker reports a planted
// reference to a missing section, name or quoted heading.
func TestDesignReferencesCatchDangling(t *testing.T) {
	design := "## 1. Layers\n\n### A team of one\n\n## 2. Layer budgets (`x`)\n"
	// Spelled apart so that this file holds no reference itself.
	const doc, short = "DESIGN" + ".md §", "DESIGN" + " §"
	ok := "see " + doc + "1, \"A team of one\", " + short + "2 and " + doc + " Layer budgets hold"
	if errs := designRefErrors(design, ok, false); len(errs) != 0 {
		t.Fatalf("valid references reported: %v", errs)
	}
	for _, bad := range []string{
		doc + "3", short + "1, §9", doc + "2, \"A team of one\"",
		doc + " Budgets", "(DESIGN" + ".md\n// §7)",
	} {
		if len(designRefErrors(design, bad, false)) == 0 {
			t.Errorf("dangling reference %q not reported", bad)
		}
	}
	if len(designRefErrors(design, "as in §5", true)) == 0 {
		t.Error("dangling §5 inside the design not reported")
	}
}

var (
	designSection = regexp.MustCompile(`(?m)^## (\d+)\. (.*)$`)
	designHeading = regexp.MustCompile(`(?m)^#{2,3} (?:\d+\. )?(.*)$`)
	// A break inside a comment ("DESIGN.md\n// §4") reads as a space.
	refBreak  = regexp.MustCompile(`\s*\n\s*(?://|#)?\s*`)
	designRef = regexp.MustCompile(`DESIGN(?:\.md)?(?:'s)? §`)
	refNumber = regexp.MustCompile(`^§(\d+)(?:, "([^"]+)")?`)
	refMore   = regexp.MustCompile(`^(?:,| and) `)
	bareRef   = regexp.MustCompile(`§(\d+)`)
)

// designRefErrors lists the references in text that name no section of
// design. Outside the design a reference is "DESIGN.md" or "DESIGN"
// followed by §N (more may follow: ", §M", " and §M") or by "§ " and the
// start of a heading's title; inside it (self), every §N is one.
func designRefErrors(design, text string, self bool) []string {
	sections := map[string]string{}
	for _, m := range designSection.FindAllStringSubmatchIndex(design, -1) {
		end := strings.Index(design[m[1]:], "\n## ")
		if end < 0 {
			end = len(design) - m[1]
		}
		sections[design[m[2]:m[3]]] = design[m[1] : m[1]+end]
	}
	var titles []string // without a trailing "(…)"
	for _, h := range designHeading.FindAllStringSubmatch(design, -1) {
		title, _, _ := strings.Cut(h[1], " (")
		titles = append(titles, title)
	}
	var errs []string
	check := func(num, quoted string) {
		body, ok := sections[num]
		switch {
		case !ok:
			errs = append(errs, "no section §"+num)
		case quoted != "" && !strings.Contains(body, quoted):
			errs = append(errs, fmt.Sprintf("§%s has no %q", num, quoted))
		}
	}
	if self {
		for _, m := range bareRef.FindAllStringSubmatch(text, -1) {
			check(m[1], "")
		}
		return errs
	}
	text = refBreak.ReplaceAllString(text, " ")
	for _, loc := range designRef.FindAllStringIndex(text, -1) {
		rest := text[loc[1]-len("§"):]
		if name, ok := strings.CutPrefix(rest, "§ "); ok {
			if !slices.ContainsFunc(titles, func(t string) bool { return strings.HasPrefix(name, t) }) {
				errs = append(errs, "no section § "+name[:min(len(name), 30)])
			}
			continue
		}
		for {
			m := refNumber.FindStringSubmatch(rest)
			if m == nil {
				errs = append(errs, "unreadable reference "+rest[:min(len(rest), 20)])
				break
			}
			check(m[1], m[2])
			rest = rest[len(m[0]):]
			sep := refMore.FindString(rest)
			if sep == "" || !strings.HasPrefix(rest[len(sep):], "§") {
				break
			}
			rest = rest[len(sep):]
		}
	}
	return errs
}

// isKnob reports whether name is a process-global switch: Set* or Enable*.
func isKnob(name string) bool {
	return strings.HasPrefix(name, "Set") || strings.HasPrefix(name, "Enable")
}

// isReader reports whether name reads runtime state: Read*, Write*,
// *Stats or *Enabled.
func isReader(name string) bool {
	return strings.HasPrefix(name, "Read") || strings.HasPrefix(name, "Write") ||
		strings.HasSuffix(name, "Stats") || strings.HasSuffix(name, "Enabled")
}

// funcsWithoutCallers returns the exported top-level funcs of the package
// in dir (import path importPath) whose name satisfies want and that no
// non-test .go file of the module references outside dir and outside the
// directory trees in skip, and how many funcs it took the census of. A
// directory with no non-test .go file is a fatal error.
func funcsWithoutCallers(t *testing.T, dir, importPath string, want func(string) bool, skip ...string) ([]string, int) {
	t.Helper()
	var names []string
	for _, f := range parseDir(t, dir) {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() && want(fd.Name.Name) {
				names = append(names, fd.Name.Name)
			}
		}
	}
	refs := references(t, dir, []string{importPath}, skip...)
	slices.Sort(names)
	var unused []string
	for _, name := range names {
		if refs[name] == 0 {
			unused = append(unused, name)
		}
	}
	return unused, len(names)
}

// parseDir parses the non-test .go files of dir; finding none is a fatal
// error.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("found no Go files in %s: the census is looking in the wrong place", dir)
	}
	return files
}

// references counts, per exported name, the selector expressions pkg.Name
// in the non-test .go files of the module that import one of importPaths
// as pkg, outside the files of dir itself and the directory trees in skip.
func references(t *testing.T, dir string, importPaths []string, skip ...string) map[string]int {
	t.Helper()
	refs := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || slices.Contains(skip, path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			filepath.Dir(path) == filepath.Clean(dir) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		local := map[string]bool{} // the names the packages are imported under
		for _, imp := range f.Imports {
			for _, ip := range importPaths {
				if imp.Path.Value == `"`+ip+`"` {
					name := filepath.Base(ip)
					if imp.Name != nil {
						name = imp.Name.Name
					}
					local[name] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if x, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := x.X.(*ast.Ident); ok && local[id.Name] {
					refs[x.Sel.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return refs
}
