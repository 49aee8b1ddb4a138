package weaver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
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

// Disabling must take effect via the gate word itself — on the chain that
// is already installed, before any re-swap. We pin that by flipping the
// gate directly and calling through the old chain handler.
func TestGateWordDisablesInstalledChain(t *testing.T) {
	p := NewProgram("test")
	var adv atomic.Int32
	m := p.Class("A").Proc("m", func() {})
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", countAdvice("count", 1, &adv))}})
	p.MustWeave()
	meth := p.Method("A.m")
	oldChain := meth.current.Load()

	p.gates[gateKey{aspect: "asp", fqn: "A.m"}].set(false)
	c := GetCall()
	c.JP = meth.jp
	oldChain.handler(c) // pre-swap chain: the inline gate check must skip
	PutCall(c)
	if adv.Load() != 0 {
		t.Fatal("disabled gate did not skip advice on the installed chain")
	}
	_ = m
}

// A fully disabled chain collapses at re-swap: no gate stages remain and
// needsWorker is recomputed over enabled advice only.
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
	ch := meth.current.Load()
	if ch.needsWorker {
		t.Fatal("collapsed chain still resolves workers")
	}
	if len(ch.applied) != 1 {
		t.Fatalf("applied list must keep disabled advice for reports, got %d", len(ch.applied))
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
	p.MustWeave() // gates created now must inherit the aspect-wide default
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
	// A failed per-method toggle must leave gates untouched.
	if err := q.SetAdviceEnabled("asp", false, "A.m", "A.nope"); err == nil {
		t.Fatal("partially invalid fqn list accepted")
	}
	if !q.AdviceEnabled("asp", "A.m") {
		t.Fatal("failed toggle flipped a gate")
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

	if got := p.ChainRebuilds() - rebuilds; got != 2 {
		t.Fatalf("Use rebuilt %d chains, want 2 (class-A candidates only)", got)
	}
	after := chainPtrs(p)
	for fqn := range after {
		changed := before[fqn] != after[fqn]
		wantChanged := fqn == "A.hit" || fqn == "A.miss" // hint bucket = class A
		if changed != wantChanged {
			t.Errorf("chain %s changed=%v, want %v", fqn, changed, wantChanged)
		}
	}
	if len(p.Method("A.hit").current.Load().applied) != 1 {
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
	if len(p.Method("A.hit").current.Load().applied) != 0 {
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

func BenchmarkWovenCallGatedEnabled(b *testing.B) {
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
