package weaver

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"aomplib/internal/rt"
)

// entryKinds registers one method of each of the five entry kinds under
// class cls and returns, per kind, a function that makes one call with
// known arguments and reports whether the body saw them and the caller got
// the body's result back.
func entryKinds(cls *Class, bodies *atomic.Int32) map[string]func() bool {
	var lo, hi, step, key int
	proc := cls.Proc("proc", func() { bodies.Add(1) })
	forp := cls.ForProc("loop", func(l, h, s int) { bodies.Add(1); lo, hi, step = l, h, s })
	keyed := cls.KeyedProc("keyed", func(k int) { bodies.Add(1); key = k })
	value := cls.ValueProc("value", func() any { bodies.Add(1); return 42 })
	future := cls.FutureProc("future", func() any { bodies.Add(1); return "done" })
	return map[string]func() bool{
		"proc":   func() bool { proc(); return true },
		"for":    func() bool { lo, hi, step = 0, 0, 0; forp(3, 9, 2); return lo == 3 && hi == 9 && step == 2 },
		"keyed":  func() bool { key = 0; keyed(7); return key == 7 },
		"value":  func() bool { return value() == 42 },
		"future": func() bool { return future().Get() == "done" },
	}
}

// Every way of having no live advice must leave all five entry kinds on
// the direct path — body exactly once, arguments and result intact, advice
// never entered — and a live chain must still advise each of them once.
func TestDirectPathAllEntryKinds(t *testing.T) {
	states := []struct {
		name   string
		direct bool
		setup  func(p *Program, asp Aspect)
	}{
		{"unwoven", true, func(p *Program, asp Aspect) { p.Use(asp) }},
		{"woven-unmatched", true, func(p *Program, asp Aspect) {
			p.Use(&SimpleAspect{Name: "other", Bind: []Binding{
				bind("call(* Elsewhere.*(..))", passAdvice("pass", 1, false))}})
			p.MustWeave()
		}},
		{"gated-off", true, func(p *Program, asp Aspect) {
			p.Use(asp)
			p.MustWeave()
			if err := p.SetAdviceEnabled("asp", false); err != nil {
				t.Fatal(err)
			}
		}},
		{"after-unweave", true, func(p *Program, asp Aspect) {
			p.Use(asp)
			p.MustWeave()
			p.Unweave()
		}},
		{"live", false, func(p *Program, asp Aspect) { p.Use(asp); p.MustWeave() }},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			p := NewProgram("test")
			var bodies, adv atomic.Int32
			calls := entryKinds(p.Class("A"), &bodies)
			st.setup(p, &SimpleAspect{Name: "asp", Bind: []Binding{
				bind("call(* A.*(..))", countAdvice("count", 1, &adv))}})
			for _, m := range p.methods {
				if got := m.current.Load().direct; got != st.direct {
					t.Errorf("%s: direct = %v, want %v", m.jp.FQN(), got, st.direct)
				}
			}
			for kind, call := range calls {
				bodies.Store(0)
				adv.Store(0)
				if !call() {
					t.Errorf("%s: arguments or result lost", kind)
				}
				wantAdv := int32(1)
				if st.direct {
					wantAdv = 0
				}
				if bodies.Load() != 1 || adv.Load() != wantAdv {
					t.Errorf("%s: body ran %d times, advice %d times; want 1 and %d",
						kind, bodies.Load(), adv.Load(), wantAdv)
				}
			}
		})
	}
}

// A method registered into a woven program lands on the path the deployed
// aspects call for: live when a pointcut selects it with the advice enabled,
// direct when nothing selects it or the selecting aspect is disabled.
func TestLateRegistrationPicksPath(t *testing.T) {
	p := NewProgram("test")
	var adv atomic.Int32
	p.Use(&SimpleAspect{Name: "on", Bind: []Binding{
		bind("call(* A.*(..))", countAdvice("count", 1, &adv))}})
	p.Use(&SimpleAspect{Name: "off", Bind: []Binding{
		bind("call(* B.*(..))", countAdvice("count", 1, &adv))}})
	if err := p.SetAdviceEnabled("off", false); err != nil {
		t.Fatal(err)
	}
	p.MustWeave()

	for _, tc := range []struct {
		class   string
		direct  bool
		advised int32
	}{{"A", false, 1}, {"B", true, 0}, {"C", true, 0}} {
		adv.Store(0)
		got := p.Class(tc.class).ValueProc("late", func() any { return tc.class })()
		if got != tc.class {
			t.Errorf("%s.late returned %v", tc.class, got)
		}
		if d := p.Method(tc.class + ".late").current.Load().direct; d != tc.direct || adv.Load() != tc.advised {
			t.Errorf("%s.late: direct=%v advised=%d, want %v and %d", tc.class, d, adv.Load(), tc.direct, tc.advised)
		}
	}
}

// Gate flips and whole-program Unweave/Weave race with callers. Every call
// must run its body exactly once and its advice at most once, and a call
// that starts after SetAdviceEnabled(…, false) has returned — with no
// enable begun before the call ends — must not be advised at all.
func TestDirectSwapUnderConcurrentCallers(t *testing.T) {
	const callers, callsPer, flips = 4, 3000, 300
	p := NewProgram("test")
	var bodies, advised [callers + 1]struct { // last slot: the toggler's own calls
		n int
		_ [56]byte
	}
	m := p.Class("A").KeyedProc("m", func(id int) { bodies[id].n++ })
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.m(..))", adviceFunc{name: "count", prec: 1,
			wrap: func(jp *Joinpoint, next HandlerFunc) HandlerFunc {
				return func(c *Call) { advised[c.Key].n++; next(c) }
			}})}})
	p.MustWeave()

	// epoch is even exactly while the advice is known to be off: bumped to
	// odd before an enable starts, back to even after a disable returns.
	var epoch atomic.Int64
	epoch.Store(1)
	var wg sync.WaitGroup
	for id := 0; id < callers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < callsPer; j++ {
				e0, a0, b0 := epoch.Load(), advised[id].n, bodies[id].n
				m(id)
				off := e0%2 == 0 && epoch.Load() == e0
				a, b := advised[id].n-a0, bodies[id].n-b0
				if b != 1 || a > 1 || (off && a != 0) {
					t.Errorf("caller %d call %d: body ran %d times, advice %d times, known off = %v", id, j, b, a, off)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for j := 0; j < flips; j++ {
			if err := p.SetAdviceEnabled("asp", false); err != nil {
				t.Error(err)
				return
			}
			epoch.Add(1)
			for k := 0; k < 10; k++ { // the window in which callers can know it is off
				m(callers)
				runtime.Gosched()
			}
			if advised[callers].n != 0 {
				t.Errorf("flip %d: %d calls advised after SetAdviceEnabled(false) returned", j, advised[callers].n)
				return
			}
			epoch.Add(1)
			if err := p.SetAdviceEnabled("asp", true); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; j < flips; j++ {
			p.Unweave()
			if err := p.Weave(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// The unplugged paths reify nothing: no pooled Call, so no allocation even
// right after a collection has emptied the pool.
func TestDirectPathDoesNotAllocate(t *testing.T) {
	p := NewProgram("test")
	a := p.Class("A")
	unwoven := a.Proc("unwoven", func() {})
	disabled := a.ForProc("disabled", func(lo, hi, step int) {})
	p.Use(&SimpleAspect{Name: "asp", Bind: []Binding{
		bind("call(* A.disabled(..))", passAdvice("pass", 1, true))}})
	p.MustWeave()
	if err := p.SetAdviceEnabled("asp", false); err != nil {
		t.Fatal(err)
	}
	rt.Region(1, func(*rt.Worker) { // in a region too: no worker lookup to pay
		if n := testing.AllocsPerRun(100, func() { unwoven(); disabled(0, 8, 1) }); n != 0 {
			t.Fatalf("direct path allocates %v per call pair", n)
		}
	})
}

// valuerAdvice is a WorkerValuer whose reified stage counts its runs, so a
// test can tell which path answered.
type valuerAdvice struct {
	adviceFunc
	staged *int
}

func (a valuerAdvice) WorkerValue(w *rt.Worker) any { return w.ID + 100 }

func newValuer(staged *int) valuerAdvice {
	a := valuerAdvice{staged: staged}
	a.adviceFunc = adviceFunc{name: "valuer", prec: 1, worker: true,
		wrap: func(jp *Joinpoint, next HandlerFunc) HandlerFunc {
			return func(c *Call) {
				*staged++
				if c.Worker == nil {
					next(c)
					return
				}
				c.Ret = a.WorkerValue(c.Worker)
			}
		}}
	return a
}

// TestSoleWorkerValuerAnswersWithoutCall: a WorkerValuer alone on a value
// method answers from the entry point — its reified stage never runs inside a
// region, the body stands in outside one and when disabled — and the same
// advice stacked under another goes back through its stage, same values.
func TestSoleWorkerValuerAnswersWithoutCall(t *testing.T) {
	p := NewProgram("test")
	staged := 0
	get := p.Class("A").ValueProc("get", func() any { return -1 })
	p.Use(&SimpleAspect{Name: "val", Bind: []Binding{bind("call(* A.get(..))", newValuer(&staged))}})
	p.MustWeave()
	if got := get(); got != -1 {
		t.Fatalf("outside a region: %v, want the body's -1", got)
	}
	inRegion := func(want any, when string) {
		t.Helper()
		rt.Region(1, func(*rt.Worker) {
			if got := get(); got != want {
				t.Errorf("%s: accessor = %v, want %v", when, got, want)
			}
		})
	}
	staged = 0
	inRegion(100, "sole valuer")
	if staged != 0 {
		t.Errorf("sole valuer: the reified stage ran %d times", staged)
	}
	if err := p.SetAdviceEnabled("val", false); err != nil {
		t.Fatal(err)
	}
	inRegion(-1, "disabled")
	if err := p.SetAdviceEnabled("val", true); err != nil {
		t.Fatal(err)
	}
	pass := adviceFunc{name: "pass", prec: 2,
		wrap: func(jp *Joinpoint, next HandlerFunc) HandlerFunc { return next }}
	p.Use(&SimpleAspect{Name: "outer", Bind: []Binding{bind("call(* A.get(..))", pass)}})
	inRegion(100, "stacked")
	if staged != 1 {
		t.Errorf("stacked: the reified stage ran %d times, want 1", staged)
	}
	// Disabling the outer advice leaves the valuer sole again at the re-swap.
	if err := p.SetAdviceEnabled("outer", false); err != nil {
		t.Fatal(err)
	}
	inRegion(100, "outer disabled")
	if staged != 1 {
		t.Errorf("outer disabled: the reified stage ran (%d), want the Call-free entry", staged)
	}
	if r := p.Report(); len(r) != 1 || len(r[0].Advice) != 2 {
		t.Errorf("report lists %v, want both advice", r)
	}
}
