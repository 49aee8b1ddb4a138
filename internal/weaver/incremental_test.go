package weaver

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The differential test of incremental weaving: a random script of
// reconfigurations runs against one program, and after every operation
// each method's weave — its Report entry and the advice a call actually
// runs through — must equal that of a fresh program built from the same
// registry, aspects and toggles and woven once. The model below is the
// script's record of those inputs.

// diffPointcuts covers every pointcut form: literal, wildcard, subtype
// (class and interface), annotation, within, negation, && and ||.
var diffPointcuts = []string{
	"call(* Base.m1(..))",
	"call(* *.m1*(..))",
	"call(* Base+.*(..))",
	"call(* Shape+.run(..))",
	"call(@Marked * *(..))",
	"annotation(@Hot)",
	"within(Other)",
	"within(Sub) && !call(* *.loop(..))",
	"call(* Util.*(..)) || annotation(@Marked)",
	"call(void *.*(int,int,int))",
	"!within(Base) && call(* *.n*(..))",
}

var diffClasses = []string{"Base", "Sub", "Other", "Util"}

type diffMethod struct {
	class, name string
	kind        Kind
	annos       []string
}

type diffBinding struct {
	pc     string
	prec   int
	worker bool
	picky  bool // rejects joinpoints annotated @Bad or named bad*
}

type diffAspect struct {
	name  string
	binds []diffBinding
}

// diffModel's enabled holds the per-method toggles still in force, and
// aspectOff the aspect-wide disables.
type diffModel struct {
	methods   []diffMethod
	aspects   []diffAspect
	enabled   map[toggleKey]bool
	aspectOff map[string]bool
	woven     bool
}

type toggleKey struct{ aspect, fqn string }

func (m *diffModel) clone() *diffModel {
	c := &diffModel{
		methods:   slices.Clone(m.methods),
		aspects:   slices.Clone(m.aspects),
		enabled:   maps.Clone(m.enabled),
		aspectOff: maps.Clone(m.aspectOff),
		woven:     m.woven,
	}
	for i := range c.methods {
		c.methods[i].annos = slices.Clone(c.methods[i].annos)
	}
	return c
}

func (m *diffModel) method(fqn string) int {
	return slices.IndexFunc(m.methods, func(dm diffMethod) bool { return dm.class+"."+dm.name == fqn })
}

// diffAdvice logs its tag on the way in, so a call's log is the chain it
// ran through.
type diffAdvice struct {
	tag string
	b   diffBinding
	log *[]string
}

func (a diffAdvice) AdviceName() string { return fmt.Sprintf("p%d", a.b.prec) }
func (a diffAdvice) Precedence() int    { return a.b.prec }
func (a diffAdvice) NeedsWorker() bool  { return a.b.worker }
func (a diffAdvice) Wrap(jp *Joinpoint, next HandlerFunc) HandlerFunc {
	return func(c *Call) { *a.log = append(*a.log, a.tag); next(c) }
}
func (a diffAdvice) ValidateJP(jp *Joinpoint) error {
	if a.b.picky && (jp.HasAnnotation("Bad") || strings.HasPrefix(jp.MethodName(), "bad")) {
		return fmt.Errorf("picky advice rejects %s", jp.FQN())
	}
	return nil
}

type diffAnno string

func (a diffAnno) AnnotationName() string { return string(a) }

// diffProgram is a program under the differential test plus its call log
// and the entry point of every registered method.
type diffProgram struct {
	p     *Program
	log   []string
	calls map[string]func()
}

func newDiffProgram() *diffProgram {
	d := &diffProgram{p: NewProgram("diff"), calls: map[string]func(){}}
	base := d.p.Class("Base", Implements("Shape"))
	d.p.Class("Sub", Extends(base))
	d.p.Class("Other", Implements("Shape"))
	d.p.Class("Util")
	return d
}

func (d *diffProgram) register(dm diffMethod) {
	fqn := dm.class + "." + dm.name
	cls := d.p.Class(dm.class)
	body := func() { d.log = append(d.log, fqn) }
	switch dm.kind {
	case ForKind:
		f := cls.ForProc(dm.name, func(int, int, int) { body() })
		d.calls[fqn] = func() { f(0, 1, 1) }
	case KeyedKind:
		f := cls.KeyedProc(dm.name, func(int) { body() })
		d.calls[fqn] = func() { f(0) }
	default:
		d.calls[fqn] = cls.Proc(dm.name, body)
	}
}

func (d *diffProgram) aspect(da diffAspect) Aspect {
	a := &SimpleAspect{Name: da.name}
	for i, b := range da.binds {
		tag := fmt.Sprintf("%s/%d", da.name, i)
		a.Bind = append(a.Bind, bind(b.pc, diffAdvice{tag: tag, b: b, log: &d.log}))
	}
	return a
}

// build makes a fresh program from the model, woven once if the model is.
func (m *diffModel) build() (*diffProgram, error) {
	d := newDiffProgram()
	for _, dm := range m.methods {
		d.register(dm)
		for _, a := range dm.annos {
			d.p.MustAnnotate(dm.class+"."+dm.name, diffAnno(a))
		}
	}
	for _, da := range m.aspects {
		d.p.Use(d.aspect(da))
	}
	for name, off := range m.aspectOff {
		if err := d.p.SetAdviceEnabled(name, !off); err != nil {
			return d, err
		}
	}
	if !m.woven {
		return d, nil
	}
	if err := d.p.Weave(); err != nil {
		return d, err
	}
	// A per-method toggle restates the advice its method carries; one
	// whose aspect no longer matches there waits for it to match again.
	for k, on := range m.enabled {
		if !reportCarries(d.p.Report(), k.fqn, k.aspect) {
			continue
		}
		if err := d.p.SetAdviceEnabled(k.aspect, on, k.fqn); err != nil {
			return d, err
		}
	}
	return d, nil
}

// trace runs every method once and returns what each call ran through.
func (d *diffProgram) trace() map[string][]string {
	out := map[string][]string{}
	for fqn, call := range d.calls {
		d.log = d.log[:0]
		call()
		out[fqn] = slices.Clone(d.log)
	}
	return out
}

func TestIncrementalEqualsFromScratch(t *testing.T) {
	scripts, ops := 60, 40
	if testing.Short() {
		scripts = 10
	}
	for seed := int64(1); seed <= int64(scripts); seed++ {
		runDiffScript(t, seed, ops)
	}
}

func runDiffScript(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	model := &diffModel{enabled: map[toggleKey]bool{}, aspectOff: map[string]bool{}}
	live := newDiffProgram()
	for i, c := range diffClasses {
		dm := diffMethod{class: c, name: []string{"m1", "run", "loop", "m1x"}[i], kind: Kind(i % 3)}
		model.methods = append(model.methods, dm)
		live.register(dm)
	}
	aspectNames := []string{"asp0", "asp1", "asp2", "asp3", "picky"}
	pickFQN := func() string {
		if rng.Intn(8) == 0 {
			return "Base.nope"
		}
		dm := model.methods[rng.Intn(len(model.methods))]
		return dm.class + "." + dm.name
	}
	// succeeds reports whether the model after a validating operation can
	// be woven — whether the operation must succeed on the live program.
	succeeds := func(next *diffModel) bool {
		if !next.woven {
			return true
		}
		_, err := next.build()
		return err == nil
	}
	late := 0
	for op := 0; op < ops; op++ {
		next := model.clone()
		var desc string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, op %d (%s): %s", seed, op, desc, fmt.Sprintf(format, args...))
		}
		switch rng.Intn(9) {
		case 0, 1: // Use
			var news []diffAspect
			for n := 1 + rng.Intn(2); n > 0; n-- {
				da := diffAspect{name: aspectNames[rng.Intn(len(aspectNames))]}
				for k := 1 + rng.Intn(2); k > 0; k-- {
					da.binds = append(da.binds, diffBinding{pc: diffPointcuts[rng.Intn(len(diffPointcuts))],
						prec: rng.Intn(4), worker: rng.Intn(2) == 0, picky: da.name == "picky"})
				}
				news = append(news, da)
			}
			desc = fmt.Sprintf("Use %+v", news)
			next.aspects = append(next.aspects, news...)
			var aspects []Aspect
			for _, da := range news {
				aspects = append(aspects, live.aspect(da))
			}
			matched := 0
			for _, jp := range live.p.Joinpoints() {
				if slices.ContainsFunc(aspects, func(a Aspect) bool {
					return slices.ContainsFunc(a.Bindings(), func(b Binding) bool { return b.Matcher.Matches(jp) })
				}) {
					matched++
				}
			}
			before := live.p.ChainRebuilds()
			ok := succeeds(next)
			if panicked := panics(func() { live.p.Use(aspects...) }); panicked == ok {
				fail("Use panicked=%v, want %v", panicked, !ok)
			}
			if ok && model.woven && live.p.ChainRebuilds()-before != uint64(matched) {
				fail("Use rebuilt %d chains, want the %d matched methods", live.p.ChainRebuilds()-before, matched)
			}
			if !ok {
				next = model
			}
		case 2: // RemoveAspect
			name := aspectNames[rng.Intn(len(aspectNames))]
			desc = "RemoveAspect " + name
			next.aspects = slices.DeleteFunc(next.aspects, func(da diffAspect) bool { return da.name == name })
			carrying, before := reportCarrying(live.p.Report(), name), live.p.ChainRebuilds()
			live.p.RemoveAspect(name)
			if got := live.p.ChainRebuilds() - before; got != uint64(carrying) {
				fail("RemoveAspect rebuilt %d chains, want the %d that carried the aspect", got, carrying)
			}
		case 3: // per-method toggle
			name, on := aspectNames[rng.Intn(len(aspectNames))], rng.Intn(2) == 0
			fqns := []string{pickFQN()}
			if rng.Intn(3) == 0 {
				fqns = append(fqns, pickFQN())
			}
			desc = fmt.Sprintf("SetAdviceEnabled %s %v %v", name, on, fqns)
			valid := true
			for _, fqn := range fqns {
				valid = valid && reportCarries(live.p.Report(), fqn, name)
				next.enabled[toggleKey{name, fqn}] = on
			}
			before := live.p.ChainRebuilds()
			if err := live.p.SetAdviceEnabled(name, on, fqns...); (err == nil) != valid {
				fail("SetAdviceEnabled err=%v, want valid=%v", err, valid)
			}
			if distinct := len(slices.Compact(slices.Sorted(slices.Values(fqns)))); valid &&
				live.p.ChainRebuilds()-before != uint64(distinct) {
				fail("SetAdviceEnabled rebuilt %d chains, want one per distinct method (%d)", live.p.ChainRebuilds()-before, distinct)
			}
			if !valid {
				next = model
			}
		case 4: // aspect-wide toggle
			name, on := aspectNames[rng.Intn(len(aspectNames))], rng.Intn(2) == 0
			desc = fmt.Sprintf("SetAdviceEnabled %s %v (aspect-wide)", name, on)
			maps.DeleteFunc(next.enabled, func(k toggleKey, _ bool) bool { return k.aspect == name })
			next.aspectOff[name] = !on
			if err := live.p.SetAdviceEnabled(name, on); err != nil {
				fail("%v", err)
			}
		case 5: // Annotate
			fqn, anno := pickFQN(), []string{"Marked", "Hot", "Bad"}[rng.Intn(3)]
			desc = fmt.Sprintf("Annotate %s @%s", fqn, anno)
			i := next.method(fqn)
			if i >= 0 {
				next.methods[i].annos = append(next.methods[i].annos, anno)
			}
			ok := i >= 0 && succeeds(next)
			if err := live.p.Annotate(fqn, diffAnno(anno)); (err == nil) != ok {
				fail("Annotate err=%v, want success=%v", err, ok)
			}
			if !ok {
				next = model
			}
		case 6: // late registration
			late++
			dm := diffMethod{class: diffClasses[rng.Intn(len(diffClasses))],
				name: fmt.Sprintf("%s%d", []string{"n", "m1", "bad", "run"}[rng.Intn(4)], late), kind: Kind(rng.Intn(3))}
			desc = fmt.Sprintf("register %+v", dm)
			next.methods = append(next.methods, dm)
			ok := succeeds(next)
			if panicked := panics(func() { live.register(dm) }); panicked == ok {
				fail("registration panicked=%v, want %v", panicked, !ok)
			}
			if !ok {
				next = model
			}
		case 7:
			desc = "Unweave"
			next.woven = false
			live.p.Unweave()
		case 8:
			desc = "Weave"
			next.woven = true
			ok := succeeds(next)
			if err := live.p.Weave(); (err == nil) != ok {
				fail("Weave err=%v, want success=%v", err, ok)
			}
			if !ok {
				next = model
			}
		}
		model = next

		fresh, err := model.build()
		if err != nil {
			fail("weaving the model from scratch: %v", err)
		}
		if got, want := live.p.Aspects(), fresh.p.Aspects(); !slices.Equal(got, want) {
			fail("Aspects() = %v, from scratch %v", got, want)
		}
		if got, want := live.p.Report(), fresh.p.Report(); !reflect.DeepEqual(got, want) {
			fail("Report() =\n%+v\nfrom scratch\n%+v", got, want)
		}
		if got, want := live.trace(), fresh.trace(); !reflect.DeepEqual(got, want) {
			fail("calls ran through\n%v\nfrom scratch\n%v", got, want)
		}
	}
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// reportCarrying counts the methods whose weave carries the aspect.
func reportCarrying(report []WovenMethod, aspect string) int {
	n := 0
	for _, wm := range report {
		if slices.ContainsFunc(wm.Details, func(d AdviceInfo) bool { return d.Aspect == aspect }) {
			n++
		}
	}
	return n
}

func reportCarries(report []WovenMethod, fqn, aspect string) bool {
	for _, wm := range report {
		if wm.FQN == fqn {
			return slices.ContainsFunc(wm.Details, func(d AdviceInfo) bool { return d.Aspect == aspect })
		}
	}
	return false
}
