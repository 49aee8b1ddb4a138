package core

import (
	"fmt"

	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// ---------------------------------------------------------- barriers --

// BarrierAspect inserts a team barrier before and/or after matched method
// executions (@BarrierBefore / @BarrierAfter). Outside a region it is a
// no-op, preserving sequential semantics.
type BarrierAspect struct {
	name          string
	matcher       weaver.Matcher
	before, after bool
}

// BarrierBeforePoint places a barrier before matched calls.
func BarrierBeforePoint(pc string) *BarrierAspect { return newBarrier(mustPC(pc), true, false) }

// BarrierAfterPoint places a barrier after matched calls.
func BarrierAfterPoint(pc string) *BarrierAspect { return newBarrier(mustPC(pc), false, true) }

// BarrierAroundPoint places barriers on both sides of matched calls.
func BarrierAroundPoint(pc string) *BarrierAspect { return newBarrier(mustPC(pc), true, true) }

func newBarrier(m weaver.Matcher, before, after bool) *BarrierAspect {
	name := "BarrierAfter"
	if before && after {
		name = "BarrierAround"
	} else if before {
		name = "BarrierBefore"
	}
	return &BarrierAspect{name: name, matcher: m, before: before, after: after}
}

// Named renames the aspect module.
func (a *BarrierAspect) Named(name string) *BarrierAspect { a.name = name; return a }

// AspectName implements weaver.Aspect.
func (a *BarrierAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *BarrierAspect) Bindings() []weaver.Binding {
	adv := advice{
		name:        "barrier",
		prec:        PrecBarrier,
		needsWorker: true,
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			return func(c *weaver.Call) {
				if c.Worker == nil {
					next(c)
					return
				}
				if a.before {
					c.Worker.Team.Barrier().WaitWorker(c.Worker)
				}
				next(c)
				if a.after {
					c.Worker.Team.Barrier().WaitWorker(c.Worker)
				}
			}
		},
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}

// ---------------------------------------------------------- critical --

type criticalMode int

const (
	criticalCaptured criticalMode = iota // lock of the target joinpoint
	criticalNamed                        // process-wide named lock
	criticalPerKey                       // lock table indexed by the method key
)

// CriticalAspect restricts matched method executions to one activity at a
// time (@Critical). Its scope is "all threads in the system", not one
// team. Three lock disciplines are supported, mirroring the paper:
// captured (per target, the default — criticalUsingCapturedLock), named
// (@Critical(id=...), which also shares one lock across every method an
// aspect matches) and per-key (a case-specific table enabling e.g. one
// lock per particle, Fig. 15 "Locks").
type CriticalAspect struct {
	name    string
	matcher weaver.Matcher
	mode    criticalMode
	id      string
	table   *rt.LockTable
}

// CriticalSection binds mutual exclusion to the methods selected by pc,
// using each matched method's own captured lock.
func CriticalSection(pc string) *CriticalAspect { return newCritical(mustPC(pc)) }

func newCritical(m weaver.Matcher) *CriticalAspect {
	return &CriticalAspect{name: "Critical", matcher: m, mode: criticalCaptured}
}

// Named renames the aspect module.
func (a *CriticalAspect) Named(name string) *CriticalAspect { a.name = name; return a }

// ID selects a process-wide named lock that can be "shared among multiple
// type-unrelated objects".
func (a *CriticalAspect) ID(id string) *CriticalAspect {
	a.mode, a.id = criticalNamed, id
	return a
}

// PerKey uses a table of n locks indexed by the method's key parameter;
// requires keyed methods.
func (a *CriticalAspect) PerKey(n int) *CriticalAspect {
	a.mode, a.table = criticalPerKey, rt.NewLockTable(n)
	return a
}

// AspectName implements weaver.Aspect.
func (a *CriticalAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *CriticalAspect) Bindings() []weaver.Binding {
	adv := advice{
		name: "critical",
		prec: PrecCritical,
		validate: func(jp *weaver.Joinpoint) error {
			if a.mode == criticalPerKey && jp.Kind() != weaver.KeyedKind {
				return fmt.Errorf("@Critical per-key requires a keyed method, got %s %s", jp.Kind(), jp.FQN())
			}
			return nil
		},
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			switch a.mode {
			case criticalNamed:
				// Resolved once per weave and cached in the binding:
				// steady-state critical entries do one pointer load and
				// never touch the (sharded) registry.
				l := rt.NamedLock(a.id)
				return func(c *weaver.Call) {
					l.Lock()
					defer l.Unlock()
					next(c)
				}
			case criticalPerKey:
				return func(c *weaver.Call) {
					a.table.Lock(c.Key)
					defer a.table.Unlock(c.Key)
					next(c)
				}
			default: // captured: the matched method's own lock
				l := rt.ObjectLock(jp)
				return func(c *weaver.Call) {
					l.Lock()
					defer l.Unlock()
					next(c)
				}
			}
		},
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}

// ------------------------------------------------------ master/single --

// claimWrap is the advice body of @Master and @Single: one worker of the
// team — worker 0, or the encounter's first arriver — executes the method;
// a value-returning method's result is broadcast to the rest.
func claimWrap(key any, master bool) func(*weaver.Joinpoint, weaver.HandlerFunc) weaver.HandlerFunc {
	begin := rt.SingleBegin
	if master {
		begin = rt.MasterBegin
	}
	return func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
		returns := jp.Kind() == weaver.ValueKind
		return func(c *weaver.Call) {
			w := c.Worker
			if w == nil {
				next(c)
				return
			}
			claim, st := begin(w, key, returns)
			if claim {
				next(c)
			}
			if returns {
				c.Ret = st.Broadcast(claim, c.Ret)
			}
		}
	}
}

// MasterAspect restricts matched executions to the team's master thread
// (@Master). On value-returning methods the master's result is propagated
// to all workers, which therefore wait for it.
type MasterAspect struct {
	name    string
	matcher weaver.Matcher
}

// MasterSection binds @Master to the methods selected by pc.
func MasterSection(pc string) *MasterAspect { return newMaster(mustPC(pc)) }

func newMaster(m weaver.Matcher) *MasterAspect { return &MasterAspect{name: "Master", matcher: m} }

// Named renames the aspect module.
func (a *MasterAspect) Named(name string) *MasterAspect { a.name = name; return a }

// AspectName implements weaver.Aspect.
func (a *MasterAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *MasterAspect) Bindings() []weaver.Binding {
	adv := advice{
		name:        "master",
		prec:        PrecMaster,
		needsWorker: true,
		wrap:        claimWrap(a, true),
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}

// SingleAspect lets exactly one (unspecified) worker of the team execute
// each encounter of the matched methods (@Single). Value-returning
// methods broadcast the result.
type SingleAspect struct {
	name    string
	matcher weaver.Matcher
}

// SingleSection binds @Single to the methods selected by pc.
func SingleSection(pc string) *SingleAspect { return newSingle(mustPC(pc)) }

func newSingle(m weaver.Matcher) *SingleAspect { return &SingleAspect{name: "Single", matcher: m} }

// Named renames the aspect module.
func (a *SingleAspect) Named(name string) *SingleAspect { a.name = name; return a }

// AspectName implements weaver.Aspect.
func (a *SingleAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *SingleAspect) Bindings() []weaver.Binding {
	adv := advice{
		name:        "single",
		prec:        PrecSingle,
		needsWorker: true,
		wrap:        claimWrap(a, false),
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}

// ----------------------------------------------------------- ordered --

// OrderedAspect serialises matched keyed methods in loop-iteration order
// within the innermost enclosing for construct (@Ordered: "only supported
// within the calling context of a for method").
type OrderedAspect struct {
	name    string
	matcher weaver.Matcher
}

// OrderedSection binds @Ordered to the keyed methods selected by pc; the
// key parameter carries the iteration value.
func OrderedSection(pc string) *OrderedAspect { return newOrdered(mustPC(pc)) }

func newOrdered(m weaver.Matcher) *OrderedAspect { return &OrderedAspect{name: "Ordered", matcher: m} }

// Named renames the aspect module.
func (a *OrderedAspect) Named(name string) *OrderedAspect { a.name = name; return a }

// AspectName implements weaver.Aspect.
func (a *OrderedAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *OrderedAspect) Bindings() []weaver.Binding {
	adv := advice{
		name:        "ordered",
		prec:        PrecOrdered,
		needsWorker: true,
		validate: func(jp *weaver.Joinpoint) error {
			if jp.Kind() != weaver.KeyedKind {
				return fmt.Errorf("@Ordered requires a keyed method carrying the iteration value, got %s %s", jp.Kind(), jp.FQN())
			}
			return nil
		},
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			return func(c *weaver.Call) {
				w := c.Worker
				if w == nil {
					next(c)
					return
				}
				fc := w.ActiveFor()
				if fc == nil {
					next(c) // outside a for construct: plain execution
					return
				}
				fc.Ordered(c.Key, func() { next(c) })
			}
		},
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}

// ---------------------------------------------------- readers/writer --

// RWAspect implements the readers/writer mechanism: "multiple readers, but
// a single exclusive writer", with the two hook points bound by separate
// pointcuts (@Reader / @Writer).
type RWAspect struct {
	name             string
	readers, writers []weaver.Matcher
	lock             rt.RWLock
}

// ReadersWriter creates an empty readers/writer aspect; attach hook points
// with Reader and Writer.
func ReadersWriter() *RWAspect { return &RWAspect{name: "ReadersWriter"} }

// Named renames the aspect module.
func (a *RWAspect) Named(name string) *RWAspect { a.name = name; return a }

// Reader marks methods selected by pc as read accesses.
func (a *RWAspect) Reader(pc string) *RWAspect {
	a.readers = append(a.readers, mustPC(pc))
	return a
}

// Writer marks methods selected by pc as write accesses.
func (a *RWAspect) Writer(pc string) *RWAspect {
	a.writers = append(a.writers, mustPC(pc))
	return a
}

// AspectName implements weaver.Aspect.
func (a *RWAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *RWAspect) Bindings() []weaver.Binding {
	rAdv := advice{
		name: "reader", prec: PrecRW,
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			return func(c *weaver.Call) {
				a.lock.RLock()
				defer a.lock.RUnlock()
				next(c)
			}
		},
	}
	wAdv := advice{
		name: "writer", prec: PrecRW,
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			return func(c *weaver.Call) {
				a.lock.Lock()
				defer a.lock.Unlock()
				next(c)
			}
		},
	}
	var out []weaver.Binding
	for _, m := range a.readers {
		out = append(out, weaver.Binding{Matcher: m, Advice: rAdv})
	}
	for _, m := range a.writers {
		out = append(out, weaver.Binding{Matcher: m, Advice: wAdv})
	}
	return out
}
