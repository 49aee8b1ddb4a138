package weaver

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"aomplib/internal/pointcut"
)

func passAdvice(name string, prec int, worker bool) adviceFunc {
	return adviceFunc{name: name, prec: prec, worker: worker,
		wrap: func(jp *Joinpoint, next HandlerFunc) HandlerFunc {
			return func(c *Call) { next(c) }
		}}
}

func countAdvice(name string, prec int, n *atomic.Int32) adviceFunc {
	return adviceFunc{name: name, prec: prec,
		wrap: func(jp *Joinpoint, next HandlerFunc) HandlerFunc {
			return func(c *Call) { n.Add(1); next(c) }
		}}
}

func TestSetAdviceEnabledDisableAndReenable(t *testing.T) {
	p := NewProgram("test")
	var body, adv atomic.Int32
	m := p.Class("A").Proc("m", func() { body.Add(1) })
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", countAdvice("count", 1, &adv))}})
	p.MustWeave()

	m()
	if body.Load() != 1 || adv.Load() != 1 {
		t.Fatalf("woven call: body=%d adv=%d", body.Load(), adv.Load())
	}
	if err := p.SetAdviceEnabled("asp", false); err != nil {
		t.Fatal(err)
	}
	m()
	if body.Load() != 2 || adv.Load() != 1 {
		t.Fatalf("disabled call: body=%d adv=%d, want 2/1", body.Load(), adv.Load())
	}
	if p.AdviceEnabled("asp", "A.m") {
		t.Fatal("AdviceEnabled reports true after disable")
	}
	if err := p.SetAdviceEnabled("asp", true); err != nil {
		t.Fatal(err)
	}
	m()
	if body.Load() != 3 || adv.Load() != 2 {
		t.Fatalf("re-enabled call: body=%d adv=%d, want 3/2", body.Load(), adv.Load())
	}
}

// A call runs on the chain it loaded: disabling the advice while a call is
// inside the advised body lets that call finish through its advice, and the
// next call, which loads the new chain, is not advised.
func TestCallFinishesOnLoadedChain(t *testing.T) {
	p := NewProgram("test")
	inBody, release := make(chan struct{}), make(chan struct{})
	var before, after atomic.Int32
	m := p.Class("A").Proc("m", func() {
		if before.Load() == 1 && after.Load() == 0 {
			close(inBody)
			<-release
		}
	})
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", adviceFunc{name: "around", prec: 1,
			wrap: func(jp *Joinpoint, next HandlerFunc) HandlerFunc {
				return func(c *Call) { before.Add(1); next(c); after.Add(1) }
			}})}})
	p.MustWeave()
	done := make(chan struct{})
	go func() { m(); close(done) }()
	<-inBody
	if err := p.SetAdviceEnabled("asp", false); err != nil {
		t.Fatal(err)
	}
	close(release)
	<-done
	if after.Load() != 1 {
		t.Fatal("the in-flight call did not finish on the chain it loaded")
	}
	m()
	if before.Load() != 1 || after.Load() != 1 {
		t.Fatalf("call after the disable returned was advised: before=%d after=%d", before.Load(), after.Load())
	}
}

// pickyAdvice rejects joinpoints whose method name is in reject, as the
// core aspects reject joinpoints of the wrong kind.
type pickyAdvice struct {
	adviceFunc
	reject map[string]bool
}

func (a pickyAdvice) ValidateJP(jp *Joinpoint) error {
	if a.reject[jp.MethodName()] {
		return fmt.Errorf("picky: %s rejected", jp.FQN())
	}
	return nil
}

// toggleMatcher selects methods named in names; tests change the set to
// make a re-weave discover new matches.
type toggleMatcher struct{ names map[string]bool }

func (m *toggleMatcher) Matches(s pointcut.Subject) bool { return m.names[s.MethodName()] }
func (m *toggleMatcher) String() string                  { return "toggle" }

// A reconfiguration that an advice rejects changes nothing: Use undeploys
// what it appended before it panics, and Weave and Annotate return their
// error with every chain, annotation, deployed aspect and the woven state
// as they were.
func TestFailedReconfigurationChangesNothing(t *testing.T) {
	var adv atomic.Int32
	count := adviceFunc{name: "count", prec: 1,
		wrap: func(jp *Joinpoint, next HandlerFunc) HandlerFunc {
			return func(c *Call) { adv.Add(1); next(c) }
		}}
	picky := pickyAdvice{count, map[string]bool{"b": true}}
	newProgram := func() (*Program, func()) {
		p := NewProgram("test")
		a := p.Class("A").Proc("a", func() {})
		p.Class("A").Proc("b", func() {})
		p.Use(&SimpleAspect{Name: "keep", Bind: []Binding{bind("call(* A.b(..))", passAdvice("pass", 1, false))}})
		p.MustWeave()
		return p, a
	}
	unchanged := func(p *Program, what string, aspects []string, report []WovenMethod, chains map[string]*chain) {
		t.Helper()
		if got := p.Aspects(); !reflect.DeepEqual(got, aspects) {
			t.Errorf("%s: Aspects() = %v, want %v", what, got, aspects)
		}
		if got := p.Report(); !reflect.DeepEqual(got, report) {
			t.Errorf("%s: Report() = %+v, want %+v", what, got, report)
		}
		if got := chainPtrs(p); !reflect.DeepEqual(got, chains) {
			t.Errorf("%s: a chain was swapped", what)
		}
	}

	t.Run("Use", func(t *testing.T) {
		p, a := newProgram()
		aspects, report, chains := p.Aspects(), p.Report(), chainPtrs(p)
		if !panics(func() { p.Use(&SimpleAspect{Name: "picky", Bind: []Binding{bind("call(* A.*(..))", picky)}}) }) {
			t.Error("Use of a rejected aspect did not panic")
		}
		unchanged(p, "after a failed Use", aspects, report, chains)
		a()
		if adv.Load() != 0 {
			t.Error("A.a runs the advice of a rejected Use")
		}
		if err := p.Weave(); err != nil {
			t.Errorf("Weave after a failed Use: %v", err)
		}
	})

	t.Run("Weave", func(t *testing.T) {
		p, _ := newProgram()
		names := &toggleMatcher{names: map[string]bool{"a": true}}
		p.Use(&SimpleAspect{Name: "picky", Bind: []Binding{{Matcher: names, Advice: picky}}})
		aspects, report, chains := p.Aspects(), p.Report(), chainPtrs(p)
		names.names["b"] = true
		if err := p.Weave(); err == nil {
			t.Fatal("Weave over a rejected joinpoint succeeded")
		}
		unchanged(p, "after a failed Weave", aspects, report, chains)
		p.Unweave()
		if err := p.Weave(); err == nil || p.woven {
			t.Fatalf("Weave of an unwoven program over a rejected joinpoint: err=%v woven=%v", err, p.woven)
		}
	})

	t.Run("Annotate", func(t *testing.T) {
		p, _ := newProgram()
		p.Use(&SimpleAspect{Name: "picky", Bind: []Binding{
			bind("call(@Marked * *(..))", pickyAdvice{count, map[string]bool{"a": true}})}})
		aspects, report, chains := p.Aspects(), p.Report(), chainPtrs(p)
		if err := p.Annotate("A.a", testAnno{}); err == nil {
			t.Fatal("Annotate onto a rejected joinpoint succeeded")
		}
		unchanged(p, "after a failed Annotate", aspects, report, chains)
	})

	t.Run("late registration", func(t *testing.T) {
		p, _ := newProgram()
		p.Use(&SimpleAspect{Name: "picky", Bind: []Binding{bind("call(* A.*(..))", pickyAdvice{count, map[string]bool{"c": true}})}})
		aspects, report, chains := p.Aspects(), p.Report(), chainPtrs(p)
		if !panics(func() { p.Class("A").Proc("c", func() {}) }) {
			t.Error("registering a rejected method did not panic")
		}
		unchanged(p, "after a rejected registration", aspects, report, chains)
		if p.Method("A.c") != nil {
			t.Error("a rejected method stays registered")
		}
	})
}

// A fully disabled chain is composed without stages: needsWorker is
// recomputed over enabled advice only.
func TestDisabledChainCollapses(t *testing.T) {
	p := NewProgram("test")
	p.Class("A").Proc("m", func() {})
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", passAdvice("pass", 1, true))}})
	p.MustWeave()
	meth := p.Method("A.m")
	if !meth.current.Load().needsWorker {
		t.Fatal("worker advice did not set needsWorker")
	}
	if err := p.SetAdviceEnabled("asp", false); err != nil {
		t.Fatal(err)
	}
	if meth.current.Load().needsWorker {
		t.Fatal("collapsed chain still resolves workers")
	}
	if len(meth.applied) != 1 {
		t.Fatalf("applied list must keep disabled advice for reports, got %d", len(meth.applied))
	}
}

func TestSetAdviceEnabledPerMethod(t *testing.T) {
	p := NewProgram("test")
	var adv atomic.Int32
	a := p.Class("A")
	m1 := a.Proc("one", func() {})
	m2 := a.Proc("two", func() {})
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.*(..))", countAdvice("count", 1, &adv))}})
	p.MustWeave()

	if err := p.SetAdviceEnabled("asp", false, "A.one"); err != nil {
		t.Fatal(err)
	}
	m1()
	m2()
	if adv.Load() != 1 {
		t.Fatalf("per-method disable: adv=%d, want 1 (A.two only)", adv.Load())
	}
	if p.AdviceEnabled("asp", "A.one") || !p.AdviceEnabled("asp", "A.two") {
		t.Fatal("AdviceEnabled state wrong after per-method toggle")
	}
}

func TestAspectWideDisableStickyForLaterWeaves(t *testing.T) {
	p := NewProgram("test")
	var adv atomic.Int32
	m := p.Class("A").Proc("m", func() {})
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", countAdvice("count", 1, &adv))}})
	if err := p.SetAdviceEnabled("asp", false); err != nil {
		t.Fatal(err)
	}
	p.MustWeave() // methods woven now must inherit the aspect-wide default
	m()
	if adv.Load() != 0 {
		t.Fatal("aspect-wide disable did not stick across Weave")
	}
	if p.AdviceEnabled("asp", "A.m") {
		t.Fatal("AdviceEnabled ignores sticky aspect default")
	}
}

func TestSetAdviceEnabledErrors(t *testing.T) {
	q := NewProgram("test")
	q.Class("A").Proc("m", func() {})
	q.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", passAdvice("pass", 1, false))}})
	q.MustWeave()
	if err := q.SetAdviceEnabled("asp", false, "A.nope"); err == nil {
		t.Fatal("unknown method accepted")
	}
	if err := q.SetAdviceEnabled("other", false, "A.m"); err == nil {
		t.Fatal("aspect not applied to method accepted")
	}
	// A failed per-method toggle must record no toggle.
	if err := q.SetAdviceEnabled("asp", false, "A.m", "A.nope"); err == nil {
		t.Fatal("partially invalid fqn list accepted")
	}
	if !q.AdviceEnabled("asp", "A.m") {
		t.Fatal("failed toggle disabled the advice")
	}
}

// chainPtrs snapshots every method's installed chain pointer, for pinning
// which chains a mutation rebuilt.
func chainPtrs(p *Program) map[string]*chain {
	out := make(map[string]*chain)
	for _, m := range p.methods {
		out[m.jp.FQN()] = m.current.Load()
	}
	return out
}

func TestIncrementalUseRebuildsOnlyMatchedMethods(t *testing.T) {
	p := NewProgram("test")
	a, b := p.Class("A"), p.Class("B")
	a.Proc("hit", func() {})
	a.Proc("miss", func() {})
	for i := 0; i < 8; i++ {
		b.Proc(fmt.Sprintf("m%d", i), func() {})
	}
	p.MustWeave()
	before := chainPtrs(p)
	rebuilds := p.ChainRebuilds()

	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.hit(..))", passAdvice("pass", 1, false))}})

	if got := p.ChainRebuilds() - rebuilds; got != 1 {
		t.Fatalf("Use rebuilt %d chains, want 1 (the matched method only)", got)
	}
	after := chainPtrs(p)
	for fqn := range after {
		if changed, wantChanged := before[fqn] != after[fqn], fqn == "A.hit"; changed != wantChanged {
			t.Errorf("chain %s changed=%v, want %v", fqn, changed, wantChanged)
		}
	}
	if len(p.Method("A.hit").applied) != 1 {
		t.Fatal("incremental Use did not apply advice")
	}
}

func TestIncrementalRemoveAspectRebuildsOnlyWovenMethods(t *testing.T) {
	p := NewProgram("test")
	a, b := p.Class("A"), p.Class("B")
	ahit := a.Proc("hit", func() {})
	for i := 0; i < 8; i++ {
		b.Proc(fmt.Sprintf("m%d", i), func() {})
	}
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.hit(..))", passAdvice("pass", 1, false))}})
	p.MustWeave()
	before := chainPtrs(p)
	rebuilds := p.ChainRebuilds()

	p.RemoveAspect("asp")
	if got := p.ChainRebuilds() - rebuilds; got != 1 {
		t.Fatalf("RemoveAspect rebuilt %d chains, want 1", got)
	}
	after := chainPtrs(p)
	for fqn := range after {
		if (before[fqn] != after[fqn]) != (fqn == "A.hit") {
			t.Errorf("chain %s rebuild state wrong", fqn)
		}
	}
	if len(p.Method("A.hit").applied) != 0 {
		t.Fatal("RemoveAspect left advice applied")
	}
	ahit()
}

func TestIncrementalAnnotateRewavesMethod(t *testing.T) {
	p := NewProgram("test")
	var adv atomic.Int32
	m := p.Class("A").Proc("m", func() {})
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(@Marked * *(..))", countAdvice("count", 1, &adv))}})
	p.MustWeave()
	m()
	if adv.Load() != 0 {
		t.Fatal("advice applied before annotation")
	}
	if err := p.Annotate("A.m", testAnno{}); err != nil {
		t.Fatal(err)
	}
	m()
	if adv.Load() != 1 {
		t.Fatal("annotation on woven program did not re-weave the method")
	}
}

func TestLateRegistrationJoinsWeave(t *testing.T) {
	p := NewProgram("test")
	var adv atomic.Int32
	p.Class("A").Proc("first", func() {})
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.*(..))", countAdvice("count", 1, &adv))}})
	p.MustWeave()
	late := p.Class("A").Proc("late", func() {})
	late()
	if adv.Load() != 1 {
		t.Fatal("late-registered method was not woven")
	}
}

func TestUnweaveStopsIncrementalWeaving(t *testing.T) {
	p := NewProgram("test")
	var adv atomic.Int32
	m := p.Class("A").Proc("m", func() {})
	p.MustWeave()
	p.Unweave()
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", countAdvice("count", 1, &adv))}})
	m()
	if adv.Load() != 0 {
		t.Fatal("Use wove advice into an unwoven program")
	}
	p.MustWeave()
	m()
	if adv.Load() != 1 {
		t.Fatal("re-Weave did not apply deployed aspect")
	}
}

func TestReportDetails(t *testing.T) {
	p := NewProgram("test")
	p.Class("A").Proc("m", func() {})
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", passAdvice("pass", 1, false))}})
	p.MustWeave()
	if err := p.SetAdviceEnabled("asp", false); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if len(rep) != 1 || len(rep[0].Details) != 1 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	d := rep[0].Details[0]
	if d.Aspect != "asp" || d.Advice != "pass" || d.Pointcut != "call(* A.m(..))" || d.Enabled {
		t.Fatalf("detail = %+v", d)
	}
	if rep[0].Advice[0] != "asp/pass" {
		t.Fatalf("Advice format changed: %v", rep[0].Advice)
	}
}

// Toggling while calls are in flight must be race-clean and every call
// must run the body exactly once (enabled or not).
func TestToggleWhileCallsInFlight(t *testing.T) {
	p := NewProgram("test")
	var body, adv atomic.Int64
	m := p.Class("A").Proc("m", func() { body.Add(1) })
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", adviceFunc{name: "count", prec: 1,
			wrap: func(jp *Joinpoint, next HandlerFunc) HandlerFunc {
				return func(c *Call) { adv.Add(1); next(c) }
			}})}})
	p.MustWeave()

	const callers, callsPer = 4, 2000
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < callsPer; j++ {
				m()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			if err := p.SetAdviceEnabled("asp", j%2 == 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if body.Load() != callers*callsPer {
		t.Fatalf("body ran %d times, want %d", body.Load(), callers*callsPer)
	}
	if adv.Load() > body.Load() {
		t.Fatalf("advice ran more often than body: %d > %d", adv.Load(), body.Load())
	}
}

func BenchmarkWovenCallEnabledAdvice(b *testing.B) {
	p := NewProgram("bench")
	m := p.Class("A").Proc("m", func() {})
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", passAdvice("pass", 1, false))}})
	p.MustWeave()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m()
	}
}

func BenchmarkWovenCallDisabledAdvice(b *testing.B) {
	p := NewProgram("bench")
	m := p.Class("A").Proc("m", func() {})
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", passAdvice("pass", 1, false))}})
	p.MustWeave()
	if err := p.SetAdviceEnabled("asp", false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m()
	}
}

// countingMatcher counts the joinpoints it is asked about.
type countingMatcher struct {
	Matcher
	n *int
}

func (m countingMatcher) Matches(s pointcut.Subject) bool { *m.n++; return m.Matcher.Matches(s) }

// countingValidator counts the joinpoints it validates.
type countingValidator struct {
	adviceFunc
	n *int
}

func (a countingValidator) ValidateJP(*Joinpoint) error { *a.n++; return nil }

// countedBinding binds a pass-through advice through pc, counting its
// matcher's and its validator's calls.
func countedBinding(pc string, prec int, matches, validations *int) Binding {
	return Binding{Matcher: countingMatcher{pointcut.MustParse(pc), matches},
		Advice: countingValidator{passAdvice(pc, prec, false), validations}}
}

// Reconfiguration edits a method's advice list instead of re-deriving it:
// toggles and RemoveAspect match and validate nothing, and Use matches only
// the new aspects' bindings, each once per joinpoint.
func TestReconfigurationMatchesOnlyNewAspects(t *testing.T) {
	p := NewProgram("test")
	for _, c := range []string{"C0", "C1"} {
		for _, m := range []string{"m1", "m2", "m10", "n"} {
			p.Class(c).Proc(m, func() {})
		}
	}
	var deployedMatches, deployedValidations, newMatches, newValidations int
	p.Use(&SimpleAspect{Name: "Count", Bind: []Binding{
		countedBinding("call(* C*.m*(..))", 10, &deployedMatches, &deployedValidations)}})
	p.MustWeave()
	wild := &SimpleAspect{Name: "Wild", Bind: []Binding{
		countedBinding("call(* *.m1*(..))", 20, &newMatches, &newValidations),
		countedBinding("call(* C1.*(..))", 10, &newMatches, &newValidations)}}
	check := func(verb string, matches, validations int) {
		t.Helper()
		if deployedMatches != 0 || deployedValidations != 0 || newMatches != matches || newValidations != validations {
			t.Fatalf("%s: deployed aspect matched %d and validated %d times, new one %d and %d; want 0, 0, %d, %d",
				verb, deployedMatches, deployedValidations, newMatches, newValidations, matches, validations)
		}
		deployedMatches, deployedValidations, newMatches, newValidations = 0, 0, 0, 0
	}
	deployedMatches, deployedValidations = 0, 0 // Weave matches everything; the counts start here

	if err := p.SetAdviceEnabled("Count", false, "C0.m1", "C1.m2"); err != nil {
		t.Fatal(err)
	}
	check("per-method SetAdviceEnabled", 0, 0)
	if err := p.SetAdviceEnabled("Count", true); err != nil {
		t.Fatal(err)
	}
	check("aspect-wide SetAdviceEnabled", 0, 0)
	p.Use(wild)
	// Two bindings over 8 joinpoints; m1 and m10 of both classes and the
	// four C1 methods are validated.
	check("Use", 2*8, 4+4)
	if err := p.SetAdviceEnabled("Wild", false, "C1.n"); err != nil {
		t.Fatal(err)
	}
	check("per-method SetAdviceEnabled of the new aspect", 0, 0)
	p.RemoveAspect("Wild")
	check("RemoveAspect", 0, 0)
	p.RemoveAspect("Count")
	check("RemoveAspect of every advice", 0, 0)
	if rep := p.Report(); slices.ContainsFunc(rep, func(wm WovenMethod) bool { return len(wm.Advice) != 0 }) {
		t.Fatalf("advice left after removing every aspect: %+v", rep)
	}
}

// A toggle allocates only the chain it swaps in: switching a method's only
// advice off swaps in the direct chain built at its registration, and
// allocates nothing, per method or aspect-wide.
func TestToggleOffSwapsInDirectChain(t *testing.T) {
	p := NewProgram("test")
	p.Class("A").Proc("m", func() {})
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", passAdvice("pass", 1, false))}})
	p.MustWeave()
	m := p.Method("A.m")
	if m.current.Load() == m.direct {
		t.Fatal("a woven method runs its direct chain")
	}
	for _, fqns := range [][]string{{"A.m"}, nil} {
		off := func() {
			if err := p.SetAdviceEnabled("asp", false, fqns...); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, off); n != 0 {
			t.Errorf("toggling off %v allocates %v", fqns, n)
		}
		if m.current.Load() != m.direct {
			t.Errorf("toggling off %v did not swap in the direct chain", fqns)
		}
		if err := p.SetAdviceEnabled("asp", true, fqns...); err != nil {
			t.Fatal(err)
		}
	}
}

// Unweave swaps in every method's direct chain and allocates nothing per
// method.
func TestUnweaveAllocatesNothingPerMethod(t *testing.T) {
	p, fqns, _ := reconfigProgram()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Unweave()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n >= uint64(len(fqns)) {
		t.Errorf("Unweave of %d methods allocated %d times", len(fqns), n)
	}
	for _, m := range p.methods {
		if m.current.Load() != m.direct || len(m.applied) != 0 {
			t.Fatalf("%s keeps advice after Unweave", m.jp.FQN())
		}
	}
}

// Pointcut matching copies and allocates nothing, over every joinpoint kind
// and every pointcut form, argument lists included.
func TestPointcutMatchAllocatesNothing(t *testing.T) {
	p := NewProgram("test")
	a := p.Class("A", Implements("Shape"))
	a.Proc("run", func() {})
	a.ForProc("loop", func(lo, hi, step int) {})
	a.KeyedProc("at", func(key int) {})
	a.ValueProc("get", func() any { return nil })
	p.MustAnnotate("A.run", testAnno{})
	var pcs []*pointcut.Pointcut
	for _, src := range []string{
		"call(* A.loop(int, int, int))",
		"call(void *.*(int))",
		"call(* A.*())",
		"call(int A.get(..))",
		"call(* Shape+.*(*, ..))",
		"call(@Marked * *(..)) || annotation(@Marked)",
		"within(A) && !call(* *.g*(..))",
	} {
		pcs = append(pcs, pointcut.MustParse(src))
	}
	jps := p.Joinpoints()
	if n := testing.AllocsPerRun(100, func() {
		for _, pc := range pcs {
			for _, jp := range jps {
				pc.Matches(jp)
			}
		}
	}); n != 0 {
		t.Errorf("matching %d pointcuts against %d joinpoints allocates %v", len(pcs), len(jps), n)
	}
}

// readCountingAspect counts its Bindings calls and builds a fresh advice,
// named after its current tag, at each one, as the core aspects do.
type readCountingAspect struct {
	name, tag string
	reads     int
}

func (a *readCountingAspect) AspectName() string { return a.name }
func (a *readCountingAspect) Bindings() []Binding {
	a.reads++
	return []Binding{bind("call(* *.m*(..))", passAdvice(a.tag, 10, false))}
}

// Each weaving verb reads each aspect it matches through Bindings exactly
// once, however many methods it matches, and reads afresh: an aspect
// configured between two verbs weaves as configured at the second.
func TestVerbsReadBindingsOncePerAspect(t *testing.T) {
	p := NewProgram("test")
	for i := 0; i < 16; i++ {
		p.Class(fmt.Sprintf("C%d", i/4)).Proc(fmt.Sprintf("m%d", i%4), func() {})
	}
	a, b, c := &readCountingAspect{name: "A", tag: "a1"}, &readCountingAspect{name: "B", tag: "b"}, &readCountingAspect{name: "C", tag: "c"}
	check := func(verb string, want ...int) {
		t.Helper()
		if got := []int{a.reads, b.reads, c.reads}; !slices.Equal(got, want) {
			t.Fatalf("%s: Bindings read %v times per aspect (A, B, C), want %v", verb, got, want)
		}
		a.reads, b.reads, c.reads = 0, 0, 0
	}
	p.Use(a, b)
	check("Use on an unwoven program", 0, 0, 0)
	a.tag = "a2"
	p.MustWeave()
	check("Weave of 16 methods", 1, 1, 0)
	if got := p.Report()[0].Advice; !slices.Equal(got, []string{"A/a2", "B/b"}) {
		t.Fatalf("Weave wove %v, want the aspect as configured before it: [A/a2 B/b]", got)
	}
	p.Use(c)
	check("Use on a woven program", 0, 0, 1)
	p.MustAnnotate("C0.m0", testAnno{})
	check("Annotate", 1, 1, 1)
	p.Class("C9").Proc("m0", func() {})
	check("late registration", 1, 1, 1)
	if err := p.SetAdviceEnabled("A", false, "C0.m1"); err != nil {
		t.Fatal(err)
	}
	if err := p.SetAdviceEnabled("B", false); err != nil {
		t.Fatal(err)
	}
	p.RemoveAspect("C")
	p.Unweave()
	check("toggles, RemoveAspect and Unweave", 0, 0, 0)
}
