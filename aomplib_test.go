package aomplib_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
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

// TestSuiteIntegration runs every benchmark's three versions end to end at
// test size through the harness — the Figure 13 pipeline in miniature —
// and requires every validation to pass and every speed-up to be sane.
func TestSuiteIntegration(t *testing.T) {
	type versions struct {
		name string
		seq  harness.Instance
		mt   harness.Instance
		aomp harness.Instance
	}
	const threads = 2
	suite := []versions{
		{"Crypt", crypt.NewSeq(crypt.SizeTest), crypt.NewMT(crypt.SizeTest, threads), crypt.NewAomp(crypt.SizeTest, threads)},
		{"LUFact", lufact.NewSeq(lufact.SizeTest), lufact.NewMT(lufact.SizeTest, threads), lufact.NewAomp(lufact.SizeTest, threads)},
		{"Series", series.NewSeq(series.SizeTest), series.NewMT(series.SizeTest, threads), series.NewAomp(series.SizeTest, threads)},
		{"SOR", sor.NewSeq(sor.SizeTest), sor.NewMT(sor.SizeTest, threads), sor.NewAomp(sor.SizeTest, threads)},
		{"Sparse", sparse.NewSeq(sparse.SizeTest), sparse.NewMT(sparse.SizeTest, threads), sparse.NewAomp(sparse.SizeTest, threads)},
		{"MolDyn", moldyn.NewSeq(moldyn.SizeTest), moldyn.NewMT(moldyn.SizeTest, threads), moldyn.NewAomp(moldyn.SizeTest, threads, moldyn.ThreadLocalStrategy)},
		{"MonteCarlo", montecarlo.NewSeq(montecarlo.SizeTest), montecarlo.NewMT(montecarlo.SizeTest, threads), montecarlo.NewAomp(montecarlo.SizeTest, threads)},
		{"RayTracer", raytracer.NewSeq(raytracer.SizeTest), raytracer.NewMT(raytracer.SizeTest, threads), raytracer.NewAomp(raytracer.SizeTest, threads)},
	}
	table := harness.NewTable()
	for _, v := range suite {
		for _, run := range []struct {
			version harness.Version
			inst    harness.Instance
		}{{harness.Seq, v.seq}, {harness.MT, v.mt}, {harness.Aomp, v.aomp}} {
			m := harness.Measure(v.name, run.version, threads, run.inst, 1)
			if m.Err != nil {
				t.Fatalf("%s/%s: %v", v.name, run.version, m.Err)
			}
			if m.Seconds <= 0 {
				t.Fatalf("%s/%s: non-positive time", v.name, run.version)
			}
			table.Add(m)
		}
	}
	// Every benchmark must have produced an Aomp/MT delta.
	if deltas := table.Deltas(threads); len(deltas) != len(suite) {
		t.Fatalf("deltas incomplete: %v", deltas)
	}
}

// TestMolDynStrategiesIntegration runs the Figure 15 variants end to end.
func TestMolDynStrategiesIntegration(t *testing.T) {
	p := moldyn.SizeTest
	for _, s := range []moldyn.Strategy{
		moldyn.ThreadLocalStrategy, moldyn.CriticalStrategy, moldyn.LockPerParticleStrategy,
	} {
		m := harness.Measure("MolDyn", harness.Version(s.String()), 2, moldyn.NewAomp(p, 2, s), 1)
		if m.Err != nil {
			t.Fatalf("strategy %v: %v", s, m.Err)
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

// isKnob reports whether name is a process-global switch: Set* or Enable*.
func isKnob(name string) bool {
	return strings.HasPrefix(name, "Set") || strings.HasPrefix(name, "Enable")
}

// funcsWithoutCallers returns the exported top-level funcs of the package
// in dir (import path importPath) whose name satisfies want and that no
// non-test .go file of the module references outside dir and outside the
// directory trees in skip, and how many funcs it took the census of. A
// directory with no non-test .go file is a fatal error.
func funcsWithoutCallers(t *testing.T, dir, importPath string, want func(string) bool, skip ...string) ([]string, int) {
	t.Helper()
	fset := token.NewFileSet()
	own, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	callers := map[string]int{} // knob -> references outside its package
	parsed := 0
	for _, path := range own {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		parsed++
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			if want(fd.Name.Name) {
				callers[fd.Name.Name] = 0
			}
		}
	}
	if parsed == 0 {
		t.Fatalf("found no Go files in %s: the census is looking in the wrong place", dir)
	}

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
		local := "" // the name the package is imported under, if it is
		for _, imp := range f.Imports {
			if imp.Path.Value == `"`+importPath+`"` {
				local = filepath.Base(importPath)
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if x, ok := n.(*ast.SelectorExpr); ok && local != "" {
				if id, ok := x.X.(*ast.Ident); ok && id.Name == local {
					if _, ok := callers[x.Sel.Name]; ok {
						callers[x.Sel.Name]++
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, name := range slices.Sorted(maps.Keys(callers)) {
		if callers[name] == 0 {
			unused = append(unused, name)
		}
	}
	return unused, len(callers)
}
