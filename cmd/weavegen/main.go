// Command weavegen is the static-weave backend: it reads a program's
// registered joinpoints and deployed aspects (by constructing the program
// exactly as the target package does), freezes the current weave into a
// weaver.StaticPlan, and emits Go source with static entry points — the
// registered body for methods the plan marks Direct (what the dynamic
// entry point calls too, minus its chain load), no chain load and no gate
// checks for advised ones. The generated Bind function re-verifies the
// embedded plan against the live program, so configuration drift fails
// loudly instead of silently running stale woven code.
//
// Usage:
//
//	go run aomplib/cmd/weavegen -list
//	go run aomplib/cmd/weavegen -target=series -o=internal/jgf/series/static_gen.go
//
// Each generated file is committed; cmd/weavegen's tests regenerate every
// target in memory and fail on drift, which keeps `go generate` honest.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"sort"
	"strings"

	"aomplib/internal/core"
	"aomplib/internal/jgf/series"
	"aomplib/internal/jgf/sor"
	"aomplib/internal/weaver"
)

// programHolder is implemented by the JGF aomp instances that expose
// their weave registry.
type programHolder interface{ Program() *weaver.Program }

// target describes one generated file.
type target struct {
	// defaultOut is the output path relative to the repository root.
	defaultOut string
	// pkg is the generated file's package clause.
	pkg string
	// planVar, entriesType, bindFunc name the generated identifiers.
	planVar, entriesType, bindFunc string
	// exported controls doc-comment phrasing only; identifier casing is
	// already fixed by the names above.
	program func() *weaver.Program
	// extra is verbatim source appended after the imports (demo program
	// constructors for self-contained targets).
	extra string
}

// benchDemoConstructor must stay in sync with newBenchDemoProgram below:
// the same construction is emitted into the generated file so benchmarks
// rebuild the exact configuration the plan was frozen from.
const benchDemoConstructor = `
// newStaticBenchProgram builds the frozen demo configuration the static
// plan below was generated from: class A with one region-entry method
// ("A.m", advised by a ParallelRegion) and one unadvised method
// ("A.plain"). Benchmarks construct it with their own thread count; the
// plan does not depend on it.
func newStaticBenchProgram(threadCount int) *weaver.Program {
	p := weaver.NewProgram("staticbench")
	cls := p.Class("A")
	cls.Proc("m", func() {})
	cls.Proc("plain", func() {})
	p.Use(core.ParallelRegion("call(* A.m(..))").Threads(threadCount))
	p.MustWeave()
	return p
}
`

func newBenchDemoProgram(threadCount int) *weaver.Program {
	p := weaver.NewProgram("staticbench")
	cls := p.Class("A")
	cls.Proc("m", func() {})
	cls.Proc("plain", func() {})
	p.Use(core.ParallelRegion("call(* A.m(..))").Threads(threadCount))
	p.MustWeave()
	return p
}

func targets() map[string]target {
	return map[string]target{
		"series": {
			defaultOut:  "internal/jgf/series/static_gen.go",
			pkg:         "series",
			planVar:     "staticPlan",
			entriesType: "StaticEntries",
			bindFunc:    "BindStatic",
			program: func() *weaver.Program {
				inst := series.NewAomp(series.SizeTest, 2)
				inst.Setup()
				return inst.(programHolder).Program()
			},
		},
		"sor": {
			defaultOut:  "internal/jgf/sor/static_gen.go",
			pkg:         "sor",
			planVar:     "staticPlan",
			entriesType: "StaticEntries",
			bindFunc:    "BindStatic",
			program: func() *weaver.Program {
				inst := sor.NewAomp(sor.SizeTest, 2)
				inst.Setup()
				return inst.(programHolder).Program()
			},
		},
		"benchdemo": {
			defaultOut:  "staticweave_gen_test.go",
			pkg:         "aomplib_test",
			planVar:     "staticBenchPlan",
			entriesType: "staticBenchEntries",
			bindFunc:    "bindStaticBench",
			program:     func() *weaver.Program { return newBenchDemoProgram(2) },
			extra:       benchDemoConstructor,
		},
	}
}

// entryName derives the generated entry field from "Class.method":
// "Series.buildCoeffs" → "BuildCoeffs".
func entryName(fqn string) string {
	name := fqn
	if i := strings.LastIndexByte(fqn, '.'); i >= 0 {
		name = fqn[i+1:]
	}
	return strings.ToUpper(name[:1]) + name[1:]
}

func kindConst(k weaver.Kind) string {
	switch k {
	case weaver.ProcKind:
		return "weaver.ProcKind"
	case weaver.ForKind:
		return "weaver.ForKind"
	case weaver.KeyedKind:
		return "weaver.KeyedKind"
	default:
		return "weaver.ValueKind"
	}
}

// signature maps a joinpoint kind to its entry-point type.
func signature(k weaver.Kind) (params, call string) {
	switch k {
	case weaver.ForKind:
		return "func(lo, hi, step int)", "c.JP, c.Lo, c.Hi, c.Step = jp, lo, hi, step"
	case weaver.KeyedKind:
		return "func(key int)", "c.JP, c.Key = jp, key"
	case weaver.ValueKind:
		return "func() any", "c.JP = jp"
	default:
		return "func()", "c.JP = jp"
	}
}

// generate builds the target's program, freezes its plan and renders the
// static-weave source file.
func generate(name string) ([]byte, error) {
	t, ok := targets()[name]
	if !ok {
		return nil, fmt.Errorf("weavegen: unknown target %q", name)
	}
	plan := t.program().Plan()
	sort.Slice(plan.Methods, func(i, j int) bool { return plan.Methods[i].FQN < plan.Methods[j].FQN })

	needsRT := false
	for _, m := range plan.Methods {
		if m.NeedsWorker {
			needsRT = true
		}
	}
	needsCore := strings.Contains(t.extra, "core.")

	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by weavegen (go run aomplib/cmd/weavegen -target=%s). DO NOT EDIT.\n\n", name)
	fmt.Fprintf(&b, "package %s\n\n", t.pkg)
	b.WriteString("import (\n\t\"fmt\"\n\n")
	if needsCore {
		b.WriteString("\t\"aomplib/internal/core\"\n")
	}
	if needsRT {
		b.WriteString("\t\"aomplib/internal/rt\"\n")
	}
	b.WriteString("\t\"aomplib/internal/weaver\"\n)\n")
	if t.extra != "" {
		b.WriteString(t.extra)
	}

	fmt.Fprintf(&b, "\n// %s is the frozen weave this file was generated for. The bind\n", t.planVar)
	fmt.Fprintf(&b, "// function verifies it against the live program before handing out\n")
	fmt.Fprintf(&b, "// static entry points.\n")
	fmt.Fprintf(&b, "var %s = weaver.StaticPlan{\n\tProgram: %q,\n\tMethods: []weaver.PlannedMethod{\n", t.planVar, plan.Program)
	for _, m := range plan.Methods {
		fmt.Fprintf(&b, "\t\t{FQN: %q, Kind: %s, Direct: %v, NeedsWorker: %v", m.FQN, kindConst(m.Kind), m.Direct, m.NeedsWorker)
		if len(m.Advice) > 0 {
			b.WriteString(", Advice: []weaver.PlannedAdvice{\n")
			for _, a := range m.Advice {
				fmt.Fprintf(&b, "\t\t\t{Aspect: %q, Name: %q, Enabled: %v},\n", a.Aspect, a.Name, a.Enabled)
			}
			b.WriteString("\t\t}")
		}
		b.WriteString("},\n")
	}
	b.WriteString("\t},\n}\n\n")

	fmt.Fprintf(&b, "// %s holds the statically woven entry points: direct calls for\n", t.entriesType)
	fmt.Fprintf(&b, "// unadvised methods, frozen (gate-free, chain-load-free) handlers for\n")
	fmt.Fprintf(&b, "// advised ones.\n")
	fmt.Fprintf(&b, "type %s struct {\n", t.entriesType)
	for _, m := range plan.Methods {
		params, _ := signature(m.Kind)
		fmt.Fprintf(&b, "\t// %s dispatches %s.\n", entryName(m.FQN), m.FQN)
		fmt.Fprintf(&b, "\t%s %s\n", entryName(m.FQN), params)
	}
	b.WriteString("}\n\n")

	fmt.Fprintf(&b, "// %s verifies that prog still matches the generated plan and\n", t.bindFunc)
	fmt.Fprintf(&b, "// returns its static entry points. A drift error means the dynamic\n")
	fmt.Fprintf(&b, "// configuration changed since generation: re-run go generate.\n")
	fmt.Fprintf(&b, "func %s(prog *weaver.Program) (*%s, error) {\n", t.bindFunc, t.entriesType)
	fmt.Fprintf(&b, "\tif err := prog.VerifyPlan(%s); err != nil {\n\t\treturn nil, err\n\t}\n", t.planVar)
	fmt.Fprintf(&b, "\te := &%s{}\n", t.entriesType)
	for _, m := range plan.Methods {
		params, assign := signature(m.Kind)
		field := entryName(m.FQN)
		if m.Direct {
			fmt.Fprintf(&b, "\t{\n\t\tbody, ok := prog.Method(%q).BodyFunc().(%s)\n", m.FQN, params)
			fmt.Fprintf(&b, "\t\tif !ok {\n\t\t\treturn nil, fmt.Errorf(\"weavegen: body of %s has unexpected type\")\n\t\t}\n", m.FQN)
			fmt.Fprintf(&b, "\t\te.%s = body\n\t}\n", field)
			continue
		}
		fmt.Fprintf(&b, "\t{\n\t\tm := prog.Method(%q)\n", m.FQN)
		fmt.Fprintf(&b, "\t\th, ok := prog.FrozenHandler(%q)\n", m.FQN)
		fmt.Fprintf(&b, "\t\tif m == nil || !ok {\n\t\t\treturn nil, fmt.Errorf(\"weavegen: method %s missing\")\n\t\t}\n", m.FQN)
		b.WriteString("\t\tjp := m.JP()\n")
		fmt.Fprintf(&b, "\t\te.%s = %s {\n", field, params)
		b.WriteString("\t\t\tc := weaver.GetCall()\n")
		fmt.Fprintf(&b, "\t\t\t%s\n", assign)
		if m.NeedsWorker {
			b.WriteString("\t\t\tc.Worker = rt.Current()\n")
		}
		b.WriteString("\t\t\th(c)\n")
		if m.Kind == weaver.ValueKind {
			b.WriteString("\t\t\tret := c.Ret\n\t\t\tweaver.PutCall(c)\n\t\t\treturn ret\n")
		} else {
			b.WriteString("\t\t\tweaver.PutCall(c)\n")
		}
		b.WriteString("\t\t}\n\t}\n")
	}
	b.WriteString("\treturn e, nil\n}\n")

	src, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("weavegen: generated source for %q does not format: %w\n%s", name, err, b.String())
	}
	return src, nil
}

func main() {
	targetName := flag.String("target", "", "target to generate (see -list)")
	out := flag.String("o", "", "output path (default: the target's canonical path)")
	list := flag.Bool("list", false, "list targets and exit")
	flag.Parse()

	if *list {
		names := make([]string, 0)
		for n, t := range targets() {
			names = append(names, fmt.Sprintf("%-10s → %s", n, t.defaultOut))
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	}
	t, ok := targets()[*targetName]
	if !ok {
		fmt.Fprintf(os.Stderr, "weavegen: unknown target %q (use -list)\n", *targetName)
		os.Exit(2)
	}
	src, err := generate(*targetName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = t.defaultOut
	}
	if err := os.WriteFile(path, src, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("weavegen: wrote %s (%d bytes)\n", path, len(src))
}
