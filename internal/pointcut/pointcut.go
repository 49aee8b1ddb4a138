// Package pointcut implements the subset of the AspectJ pointcut language
// that AOmpLib uses to bind aspect modules to base programs (paper §III.B):
//
//	call(void Linpack.reduceAllCols(..))
//	execution(int Linpack.dgefa(..))
//	call(@Parallel * *(..))                  — annotation matching (Fig. 5)
//	call(* Particle+.force(..))              — '+' matches subtypes and
//	                                           interface implementations
//	within(Linpack) && !call(* *.idamax(..)) — boolean composition
//
// Grammar (informal):
//
//	expr      = or ;
//	or        = and { "||" and } ;
//	and       = unary { "&&" unary } ;
//	unary     = "!" unary | "(" expr ")" | primitive ;
//	primitive = ("call" | "execution") "(" signature ")"
//	          | "within" "(" typePattern ")"
//	          | "annotation" "(" "@" ident ")" ;
//	signature = { "@" ident } [ retPattern ] [ typePattern "." ] namePattern
//	            "(" argsPattern ")" ;
//	argsPattern = ".." | [ argPat { "," argPat } ] ;  argPat = ident | "*" ;
//	typePattern = pattern [ "+" ] ;     pattern = ident-with-"*"-wildcards ;
//
// In AOmpLib all joinpoints are method calls ("each mechanism acts upon a
// set of method calls in the base program"), so call and execution match
// identically; both are accepted for fidelity with the paper's examples.
package pointcut

import (
	"fmt"
	"strings"
)

// Subject is the joinpoint view a pointcut is matched against. The weaver's
// Joinpoint type implements it; tests may use lightweight fakes.
type Subject interface {
	// ClassName is the declaring class of the method.
	ClassName() string
	// MethodName is the method's simple name.
	MethodName() string
	// ArgKinds lists the exposed parameter kinds, e.g. ["int","int","int"]
	// for a for method. Parameters captured by closure are not part of the
	// parallelisation API and are not listed.
	ArgKinds() []string
	// ReturnsValue reports whether the method returns a value.
	ReturnsValue() bool
	// HasAnnotation reports whether the method carries the named annotation.
	HasAnnotation(name string) bool
	// ClassIsA reports whether the declaring class matches typeName
	// including inheritance: the class itself, any superclass, or any
	// implemented interface.
	ClassIsA(typeName string) bool
}

// Pointcut is a compiled pointcut expression. Wildcard fragments are
// compiled into shape-classified matchers at parse time (exact, prefix,
// suffix, contains, or general fragment scans), so Matches never re-splits
// pattern strings — weaving over large registries pays string comparisons,
// not allocations.
type Pointcut struct {
	src  string
	expr node
}

// MustParse is Parse that panics on error; intended for aspect-module
// literals whose pointcuts are compile-time constants.
func MustParse(src string) *Pointcut {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Parse compiles a pointcut expression.
func Parse(src string) (*Pointcut, error) {
	ps := &parser{lex: newLexer(src)}
	expr, err := ps.parseExpr()
	if err != nil {
		return nil, fmt.Errorf("pointcut %q: %w", src, err)
	}
	if tok := ps.lex.next(); tok.kind != tokEOF {
		return nil, fmt.Errorf("pointcut %q: unexpected trailing %q", src, tok.text)
	}
	return &Pointcut{src: src, expr: expr}, nil
}

// Matches reports whether the pointcut selects the given joinpoint.
func (p *Pointcut) Matches(s Subject) bool { return p.expr.matches(s) }

// String returns the source expression.
func (p *Pointcut) String() string { return p.src }

// ---------------------------------------------------------------- AST --

type node interface {
	matches(Subject) bool
}

type orNode struct{ l, r node }
type andNode struct{ l, r node }
type notNode struct{ n node }

func (n orNode) matches(s Subject) bool  { return n.l.matches(s) || n.r.matches(s) }
func (n andNode) matches(s Subject) bool { return n.l.matches(s) && n.r.matches(s) }
func (n notNode) matches(s Subject) bool { return !n.n.matches(s) }

// withinNode matches the declaring class (no subtype operator in within,
// matching AspectJ's lexical semantics approximated on classes).
type withinNode struct{ pattern pattern }

func (n withinNode) matches(s Subject) bool { return n.pattern.match(s.ClassName()) }

// annotationNode matches methods carrying a named annotation.
type annotationNode struct{ name string }

func (n annotationNode) matches(s Subject) bool { return s.HasAnnotation(n.name) }

// sigNode matches a call/execution signature.
type sigNode struct {
	annotations []string
	ret         string  // "", "*", "void", or a concrete kind
	classPat    pattern // empty raw or "*" match any class
	subtypes    bool    // classPat+ — include inheritance chain
	namePat     pattern
	args        []string // each "int", "*", or ".."; nil == ".."
}

// matches takes a pointer: with a value receiver every call through the
// node interface would copy the node, about 200 bytes.
func (n *sigNode) matches(s Subject) bool {
	for _, a := range n.annotations {
		if !s.HasAnnotation(a) {
			return false
		}
	}
	switch n.ret {
	case "", "*":
	case "void":
		if s.ReturnsValue() {
			return false
		}
	default:
		if !s.ReturnsValue() {
			return false
		}
	}
	if n.classPat.raw != "" && n.classPat.raw != "*" {
		if n.subtypes {
			if !s.ClassIsA(n.classPat.raw) && !n.classPat.match(s.ClassName()) {
				return false
			}
		} else if !n.classPat.match(s.ClassName()) {
			return false
		}
	}
	if !n.namePat.match(s.MethodName()) {
		return false
	}
	return argsMatch(n.args, s.ArgKinds())
}

func argsMatch(pats, kinds []string) bool {
	if pats == nil {
		return true // ".."
	}
	i := 0
	for pi, p := range pats {
		if p == ".." {
			// ".." swallows the rest; anything after ".." must match a
			// suffix — AOmpLib signatures never need that, so treat a
			// trailing ".." as match-rest.
			_ = pi
			return true
		}
		if i >= len(kinds) {
			return false
		}
		if p != "*" && p != kinds[i] {
			return false
		}
		i++
	}
	return i == len(kinds)
}

// ------------------------------------------------- compiled patterns --

// patKind classifies a compiled wildcard pattern by shape, so the common
// spellings ("relax*", "*Cols", "*force*", exact names) match with one
// strings primitive instead of a fragment scan.
type patKind uint8

const (
	patExact patKind = iota
	patAny
	patPrefix
	patSuffix
	patContains
	patGeneral
)

// pattern is a wildcard identifier pattern compiled at parse time: '*'
// matches any (possibly empty) sequence of characters.
type pattern struct {
	raw   string
	kind  patKind
	lit   string   // the literal fragment of exact/prefix/suffix/contains
	parts []string // '*'-split fragments of the general shape
}

// compilePattern classifies raw once; match never re-splits it.
func compilePattern(raw string) pattern {
	if raw == "*" {
		return pattern{raw: raw, kind: patAny}
	}
	if !strings.Contains(raw, "*") {
		return pattern{raw: raw, kind: patExact, lit: raw}
	}
	parts := strings.Split(raw, "*")
	switch {
	case len(parts) == 2 && parts[0] == "":
		return pattern{raw: raw, kind: patSuffix, lit: parts[1]}
	case len(parts) == 2 && parts[1] == "":
		return pattern{raw: raw, kind: patPrefix, lit: parts[0]}
	case len(parts) == 3 && parts[0] == "" && parts[2] == "" && parts[1] != "":
		return pattern{raw: raw, kind: patContains, lit: parts[1]}
	}
	return pattern{raw: raw, kind: patGeneral, parts: parts}
}

// match reports whether s matches the compiled pattern.
func (p pattern) match(s string) bool {
	switch p.kind {
	case patAny:
		return true
	case patExact:
		return s == p.lit
	case patPrefix:
		return strings.HasPrefix(s, p.lit)
	case patSuffix:
		return strings.HasSuffix(s, p.lit)
	case patContains:
		return strings.Contains(s, p.lit)
	}
	// General shape: anchor first and last fragments; middle fragments
	// float in order.
	parts := p.parts
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	last := parts[len(parts)-1]
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		idx := strings.Index(s, mid)
		if idx < 0 {
			return false
		}
		s = s[idx+len(mid):]
	}
	return strings.HasSuffix(s, last)
}
