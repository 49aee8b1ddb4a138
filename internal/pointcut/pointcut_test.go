package pointcut

import (
	"strings"
	"testing"
	"testing/quick"
)

// fakeJP implements Subject for tests.
type fakeJP struct {
	class   string
	method  string
	args    []string
	retsVal bool
	annos   []string
	isA     []string // class + supertypes + interfaces
}

func (f fakeJP) ClassName() string  { return f.class }
func (f fakeJP) MethodName() string { return f.method }
func (f fakeJP) ArgKinds() []string { return f.args }
func (f fakeJP) ReturnsValue() bool { return f.retsVal }
func (f fakeJP) HasAnnotation(name string) bool {
	for _, a := range f.annos {
		if a == name {
			return true
		}
	}
	return false
}
func (f fakeJP) ClassIsA(t string) bool {
	if t == f.class {
		return true
	}
	for _, s := range f.isA {
		if s == t {
			return true
		}
	}
	return false
}

var (
	dgefa    = fakeJP{class: "Linpack", method: "dgefa", retsVal: true}
	reduce   = fakeJP{class: "Linpack", method: "reduceAllCols", args: []string{"int", "int", "int"}}
	inter    = fakeJP{class: "Linpack", method: "interchange"}
	dscal    = fakeJP{class: "Linpack", method: "dscal"}
	forceLJ  = fakeJP{class: "LJParticle", method: "force", isA: []string{"Particle", "IParticle"}}
	forceEl  = fakeJP{class: "ElectroParticle", method: "force", isA: []string{"Particle", "IParticle"}}
	mdMove   = fakeJP{class: "MD", method: "domove"}
	annotAny = fakeJP{class: "MD", method: "runiters", annos: []string{"Parallel"}}
)

func TestPaperExamples(t *testing.T) {
	// Every pointcut the paper's Figure 7 aspect uses.
	cases := []struct {
		src     string
		match   []fakeJP
		nomatch []fakeJP
	}{
		{"call(int Linpack.dgefa(..))", []fakeJP{dgefa}, []fakeJP{reduce, inter}},
		{"call(void reduceAllCols(..))", []fakeJP{reduce}, []fakeJP{dgefa, inter}},
		{"call(void Linpack.interchange(..)) || call(void Linpack.dscal(..))",
			[]fakeJP{inter, dscal}, []fakeJP{dgefa, reduce}},
		{"call(void reduceAllCols(..)) || call(void Linpack.interchange(..)) || call(void Linpack.dscal(..))",
			[]fakeJP{reduce, inter, dscal}, []fakeJP{dgefa}},
		// Figure 4: call (void someMethod());
		{"call(void someMethod())", []fakeJP{{class: "X", method: "someMethod", args: []string{}}}, []fakeJP{dgefa}},
		// Figure 5: call(@Parallel * *(*)) — annotation style.
		{"call(@Parallel * *(..))", []fakeJP{annotAny}, []fakeJP{dgefa, mdMove}},
	}
	for _, c := range cases {
		pc, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		for _, jp := range c.match {
			if !pc.Matches(jp) {
				t.Errorf("%q should match %s.%s", c.src, jp.class, jp.method)
			}
		}
		for _, jp := range c.nomatch {
			if pc.Matches(jp) {
				t.Errorf("%q should NOT match %s.%s", c.src, jp.class, jp.method)
			}
		}
	}
}

func TestSubtypeOperator(t *testing.T) {
	pc := MustParse("call(* Particle+.force(..))")
	if !pc.Matches(forceLJ) || !pc.Matches(forceEl) {
		t.Error("Particle+ did not match implementations")
	}
	if pc.Matches(dgefa) {
		t.Error("Particle+ matched unrelated class")
	}
	// Interface binding — "pointcuts defined over Java interfaces".
	pc2 := MustParse("call(* IParticle+.force(..))")
	if !pc2.Matches(forceLJ) {
		t.Error("interface pointcut did not match implementer")
	}
	// Without '+', the concrete class name must match exactly.
	pc3 := MustParse("call(* Particle.force(..))")
	if pc3.Matches(forceLJ) {
		t.Error("non-subtype pattern matched subclass")
	}
}

func TestWildcardPatterns(t *testing.T) {
	cases := []struct {
		src  string
		jp   fakeJP
		want bool
	}{
		{"call(* *.force(..))", forceLJ, true},
		{"call(* Lin*.d*(..))", dgefa, true},
		{"call(* *Particle.force(..))", forceEl, true},
		{"call(* *Particle.force(..))", mdMove, false},
		{"call(* *.*Cols(..))", reduce, true},
		{"call(* *.re*All*(..))", reduce, true},
		{"call(* *.*(int,int,int))", reduce, true},
		{"call(* *.*(int,int,int))", dgefa, false},
		{"call(* *.*(int,..))", reduce, true},
		{"call(* *.*(*,*,*))", reduce, true},
		{"call(* *.*())", dgefa, true}, // dgefa exposes no parameters
		{"call(* *.*())", reduce, false},
	}
	for _, c := range cases {
		pc, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if got := pc.Matches(c.jp); got != c.want {
			t.Errorf("%q.Matches(%s.%s) = %v, want %v", c.src, c.jp.class, c.jp.method, got, c.want)
		}
	}
}

func TestBooleanComposition(t *testing.T) {
	pc := MustParse("within(Linpack) && !call(* *.dgefa(..))")
	if pc.Matches(dgefa) {
		t.Error("negation failed")
	}
	if !pc.Matches(reduce) {
		t.Error("conjunction failed")
	}
	if pc.Matches(mdMove) {
		t.Error("within failed")
	}
	// Parentheses and precedence: && binds tighter than ||.
	pc2 := MustParse("call(* MD.*(..)) || within(Linpack) && call(* *.dgefa(..))")
	if !pc2.Matches(mdMove) || !pc2.Matches(dgefa) || pc2.Matches(reduce) {
		t.Error("precedence broken")
	}
	pc3 := MustParse("(call(* MD.*(..)) || within(Linpack)) && call(* *.dgefa(..))")
	if pc3.Matches(mdMove) {
		t.Error("parenthesised grouping broken")
	}
}

func TestAnnotationDesignator(t *testing.T) {
	pc := MustParse("annotation(@Parallel)")
	if !pc.Matches(annotAny) || pc.Matches(dgefa) {
		t.Error("annotation() designator broken")
	}
}

func TestVoidVsValueReturn(t *testing.T) {
	pc := MustParse("call(void Linpack.*(..))")
	if pc.Matches(dgefa) {
		t.Error("void matched value-returning method")
	}
	if !pc.Matches(reduce) {
		t.Error("void did not match void method")
	}
	pc2 := MustParse("call(int Linpack.*(..))")
	if !pc2.Matches(dgefa) || pc2.Matches(reduce) {
		t.Error("typed return matching broken")
	}
}

func TestExecutionEquivalentToCall(t *testing.T) {
	a := MustParse("call(* Linpack.dgefa(..))")
	b := MustParse("execution(* Linpack.dgefa(..))")
	if a.Matches(dgefa) != b.Matches(dgefa) {
		t.Error("call and execution disagree")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"call(",
		"call()",
		"call(void )",
		"frobnicate(* *(..))",
		"call(* *(..)) &&",
		"call(* *(..)) || ",
		"call(* *(..) ",
		"call(* a.b.c.d(..))",
		"within()",
		"annotation(Parallel)",
		"!(call(* *(..))",
		"call(* *(..)) extra",
		"call(void a.(..))",
		"call(* *(int,))",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	src := "call(int Linpack.dgefa(..)) && !within(MD)"
	pc := MustParse(src)
	if pc.String() != src {
		t.Errorf("String() = %q, want %q", pc.String(), src)
	}
}

// Property: a pointcut built from a literal class.method always matches
// exactly that joinpoint and never a differently-named one.
func TestLiteralMatchProperty(t *testing.T) {
	sanitize := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
				b.WriteRune(r)
			}
		}
		if b.Len() == 0 {
			return "X"
		}
		return b.String()
	}
	f := func(cls, m, otherM string) bool {
		c, mm, om := sanitize(cls), sanitize(m), sanitize(otherM)
		pc, err := Parse("call(* " + c + "." + mm + "(..))")
		if err != nil {
			return false
		}
		self := fakeJP{class: c, method: mm}
		if !pc.Matches(self) {
			return false
		}
		if om != mm && pc.Matches(fakeJP{class: c, method: om}) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the compiled pattern "*"+s+"*" matches x iff x contains s.
func TestWildcardContainsProperty(t *testing.T) {
	f := func(s, x string) bool {
		if strings.Contains(s, "*") || strings.Contains(x, "*") {
			return true // skip degenerate inputs
		}
		return compilePattern("*"+s+"*").match(x) == strings.Contains(x, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCompilePatternShapes(t *testing.T) {
	cases := []struct {
		raw  string
		kind patKind
		yes  []string
		no   []string
	}{
		{"dgefa", patExact, []string{"dgefa"}, []string{"dgefaX", "Xdgefa", ""}},
		{"*", patAny, []string{"", "anything"}, nil},
		{"relax*", patPrefix, []string{"relax", "relaxRed"}, []string{"elax", "Xrelax"}},
		{"*Cols", patSuffix, []string{"Cols", "reduceAllCols"}, []string{"ColsX"}},
		{"*All*", patContains, []string{"All", "reduceAllCols"}, []string{"al", ""}},
		{"re*All*s", patGeneral, []string{"reduceAllCols", "reAlls"}, []string{"reduceAll", "xreAlls"}},
		{"**", patGeneral, []string{"", "x"}, nil},
	}
	for _, c := range cases {
		p := compilePattern(c.raw)
		if p.kind != c.kind {
			t.Errorf("compilePattern(%q).kind = %d, want %d", c.raw, p.kind, c.kind)
		}
		for _, s := range c.yes {
			if !p.match(s) {
				t.Errorf("pattern %q should match %q", c.raw, s)
			}
		}
		for _, s := range c.no {
			if p.match(s) {
				t.Errorf("pattern %q should NOT match %q", c.raw, s)
			}
		}
	}
}

func TestParseDepthLimit(t *testing.T) {
	deep := strings.Repeat("!", maxParseDepth+8) + "within(X)"
	if _, err := Parse(deep); err == nil {
		t.Error("deeply nested expression parsed, want depth error")
	}
	ok := strings.Repeat("(", 10) + "within(X)" + strings.Repeat(")", 10)
	if _, err := Parse(ok); err != nil {
		t.Errorf("moderately nested expression failed: %v", err)
	}
}

func BenchmarkMatch(b *testing.B) {
	pc := MustParse("call(void Linpack.interchange(..)) || call(void Linpack.dscal(..))")
	for i := 0; i < b.N; i++ {
		pc.Matches(dscal)
	}
}

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MustParse("within(Linpack) && !call(* *.dgefa(int,..)) || annotation(@For)")
	}
}
