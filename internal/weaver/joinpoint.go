// Package weaver is the Go analogue of the AspectJ weaver that AOmpLib is
// built on (paper §III.B/§IV). Base programs register their externally
// visible methods — the joinpoints — through typed wrappers; aspect modules
// contribute *around advice* selected by pointcuts; Weave composes, for
// every method, the matching advice into a wrapper chain exactly as the
// AspectJ compiler rewrites `m` into a woven `m` calling `original_m`
// (paper Fig. 12). Unweave restores the direct body, which is the
// library's "sequential semantics": a program with its aspects unplugged
// is the original sequential program.
//
// Method registration mirrors the paper's refactoring discipline: multiple
// statements are grouped "by moving those statements into an externally
// visible method" (M2M), and loops become *for methods* exposing
// (start, end, step) in their first three int parameters (M2FOR).
package weaver

// Kind classifies a joinpoint by its exposed signature. AOmpLib binds all
// constructs to method executions; four signature shapes cover the whole
// library (closure-captured parameters are not part of the
// parallelisation API and therefore not modelled).
type Kind int

const (
	// ProcKind is a plain method: func().
	ProcKind Kind = iota
	// ForKind is a for method: func(start, end, step int) (M2FOR refactor).
	ForKind
	// KeyedKind is a method exposing one int key: func(key int) — used by
	// @Ordered (iteration index) and case-specific per-key locking.
	KeyedKind
	// ValueKind is a value-returning method: func() any — used by
	// @FutureTask and the broadcasting forms of @Single/@Master.
	ValueKind
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ProcKind:
		return "proc"
	case ForKind:
		return "for"
	case KeyedKind:
		return "keyed"
	case ValueKind:
		return "value"
	default:
		return "unknown"
	}
}

// forArgs and keyedArgs are shared by every joinpoint of their kind, so
// matching a signature's argument list allocates nothing.
var forArgs, keyedArgs = []string{"int", "int", "int"}, []string{"int"}

// argKinds reports the exposed parameter kinds used for pointcut matching.
// The slice is shared and read-only.
func (k Kind) argKinds() []string {
	switch k {
	case ForKind:
		return forArgs
	case KeyedKind:
		return keyedArgs
	default:
		return nil
	}
}

// Annotation is a plain-Java-annotation analogue attached to a joinpoint
// via Program.Annotate (paper §III.B: "the library can be used with plain
// Java annotations"). Concrete annotation types live in the core package.
type Annotation interface {
	// AnnotationName is the name matched by @Name pointcuts.
	AnnotationName() string
}

// Class is a declaring scope for joinpoints, carrying the inheritance
// metadata pointcuts match against: "a pointcut can act upon all
// implementations of a method (including overriding methods) and also can
// act upon Java interfaces".
type Class struct {
	program    *Program
	name       string
	extends    *Class
	implements []string
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// isA reports whether the class is, extends, or implements typeName.
func (c *Class) isA(typeName string) bool {
	for cl := c; cl != nil; cl = cl.extends {
		if cl.name == typeName {
			return true
		}
		for _, i := range cl.implements {
			if i == typeName {
				return true
			}
		}
	}
	return false
}

// Joinpoint identifies one method of one class. It implements
// pointcut.Subject.
type Joinpoint struct {
	class       *Class
	name        string
	fqn         string // "Class.method", built once at registration
	kind        Kind
	annotations []Annotation
}

// ClassName implements pointcut.Subject.
func (j *Joinpoint) ClassName() string { return j.class.name }

// MethodName implements pointcut.Subject.
func (j *Joinpoint) MethodName() string { return j.name }

// ArgKinds implements pointcut.Subject. The slice is shared by every
// joinpoint of its kind: callers must not modify it.
func (j *Joinpoint) ArgKinds() []string { return j.kind.argKinds() }

// ReturnsValue implements pointcut.Subject.
func (j *Joinpoint) ReturnsValue() bool { return j.kind == ValueKind }

// HasAnnotation implements pointcut.Subject.
func (j *Joinpoint) HasAnnotation(name string) bool {
	for _, a := range j.annotations {
		if a.AnnotationName() == name {
			return true
		}
	}
	return false
}

// ClassIsA implements pointcut.Subject.
func (j *Joinpoint) ClassIsA(typeName string) bool { return j.class.isA(typeName) }

// Kind returns the joinpoint's signature kind.
func (j *Joinpoint) Kind() Kind { return j.kind }

// FQN returns "Class.method".
func (j *Joinpoint) FQN() string { return j.fqn }

// Annotations returns the annotations attached to the joinpoint.
func (j *Joinpoint) Annotations() []Annotation { return j.annotations }
