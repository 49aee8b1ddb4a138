package core

import (
	"fmt"

	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// This file provides the annotation style of programming (paper §III.B):
// plain metadata attached to methods via Program.Annotate, translated into
// concrete aspects by AnnotationAspects — the analogue of the library's
// ParallelAnnotation aspect, "the aspect that acts upon all methods that
// are annotated with @Parallel" (paper Fig. 5).

// Parallel marks a method as a parallel region — @Parallel[(threads=n)].
type Parallel struct {
	// Threads fixes the team size; 0 uses the process default.
	Threads int
}

// AnnotationName implements weaver.Annotation.
func (Parallel) AnnotationName() string { return "Parallel" }

// For marks a for method for work sharing —
// @For[(schedule=staticBlock|staticCyclic|dynamic)].
type For struct {
	// Schedule selects the policy (default staticBlock).
	Schedule sched.Kind
	// Chunk is the balance unit of dynamic/guided (default 1; ForAspect.Chunk).
	Chunk int
	// NoWait suppresses the dynamic schedule's implicit barrier.
	NoWait bool
	// Custom supplies a case-specific schedule; set Schedule to
	// sched.Custom.
	Custom sched.ScheduleFunc
}

// AnnotationName implements weaver.Annotation.
func (For) AnnotationName() string { return "For" }

// Task spawns the method as a new parallel activity — @Task.
type Task struct{}

// AnnotationName implements weaver.Annotation.
func (Task) AnnotationName() string { return "Task" }

// Depend attaches OpenMP 4.x-style dependence clauses to a @Task or
// @FutureTask method — @Depend(in=…, out=…, inout=…). Each clause lists
// address keys (&x, &a[i]); spawns are ordered after previously spawned
// conflicting tasks: an in clause waits for the last writer of the
// address, an out/inout clause waits for the last writer and all readers
// since. Elements of type DepFn are resolved against the keyed method's
// key at every spawn, expressing per-call addresses (wavefront blocks,
// grid neighbours); nil elements are skipped.
type Depend struct {
	In, Out, InOut []any
}

// AnnotationName implements weaver.Annotation.
func (Depend) AnnotationName() string { return "Depend" }

// TaskWait makes the method a join point for spawned activities — @TaskWait.
type TaskWait struct {
	// After joins after the body instead of before it.
	After bool
}

// AnnotationName implements weaver.Annotation.
func (TaskWait) AnnotationName() string { return "TaskWait" }

// FutureTask spawns a value-returning method asynchronously — @FutureTask.
// The method's Future getter is the synchronisation point (@FutureResult).
type FutureTask struct{}

// AnnotationName implements weaver.Annotation.
func (FutureTask) AnnotationName() string { return "FutureTask" }

// Ordered serialises a keyed method in iteration order within the
// enclosing for construct — @Ordered.
type Ordered struct{}

// AnnotationName implements weaver.Annotation.
func (Ordered) AnnotationName() string { return "Ordered" }

// Critical enforces mutual exclusion — @Critical[(id=name)]. An empty ID
// uses the annotated method's own captured lock, "as in plain Java".
type Critical struct {
	// ID names a process-wide lock shared by all @Critical(id=ID) uses.
	ID string
	// PerKey, when positive, uses a table of that many locks indexed by
	// the keyed method's key (case-specific fine-grained locking).
	PerKey int
}

// AnnotationName implements weaver.Annotation.
func (Critical) AnnotationName() string { return "Critical" }

// BarrierBefore inserts a team barrier before the method — @BarrierBefore.
type BarrierBefore struct{}

// AnnotationName implements weaver.Annotation.
func (BarrierBefore) AnnotationName() string { return "BarrierBefore" }

// BarrierAfter inserts a team barrier after the method — @BarrierAfter.
type BarrierAfter struct{}

// AnnotationName implements weaver.Annotation.
func (BarrierAfter) AnnotationName() string { return "BarrierAfter" }

// Reader marks a read access of a readers/writer pair — @Reader. Pairs
// share locks by ID.
type Reader struct{ ID string }

// AnnotationName implements weaver.Annotation.
func (Reader) AnnotationName() string { return "Reader" }

// Writer marks a write access of a readers/writer pair — @Writer.
type Writer struct{ ID string }

// AnnotationName implements weaver.Annotation.
func (Writer) AnnotationName() string { return "Writer" }

// Single lets one worker execute each encounter — @Single.
type Single struct{}

// AnnotationName implements weaver.Annotation.
func (Single) AnnotationName() string { return "Single" }

// Master restricts execution to the master thread — @Master.
type Master struct{}

// AnnotationName implements weaver.Annotation.
func (Master) AnnotationName() string { return "Master" }

// ThreadLocalField makes the annotated accessor return a per-thread value
// — @ThreadLocalField[(id=name)]. Exactly one of Fresh/FromGlobal must be
// set (write-first vs read-first initialisation).
type ThreadLocalField struct {
	ID         string
	Fresh      func() any
	FromGlobal func() any
}

// AnnotationName implements weaver.Annotation.
func (ThreadLocalField) AnnotationName() string { return "ThreadLocalField" }

// Reduce merges the thread-local copies identified by ID into the global
// value at the annotated method — @Reduce[(id=name)]. Merge runs as
// ReducePoint's does: in worker-id order, on the last worker to arrive.
type Reduce struct {
	ID    string
	Merge func(local any)
}

// AnnotationName implements weaver.Annotation.
func (Reduce) AnnotationName() string { return "Reduce" }

// AnnotationAspects scans the program's joinpoints and builds the concrete
// aspects realising their annotations, one aspect per annotated method
// (bound by exact matcher so per-method parameters — thread counts, lock
// ids, schedules — apply precisely). Deploy the result with Use, then
// Weave:
//
//	prog.MustAnnotate("Linpack.dgefa", core.Parallel{})
//	prog.Use(core.AnnotationAspects(prog)...)
//	prog.MustWeave()
func AnnotationAspects(p *weaver.Program) []weaver.Aspect {
	var out []weaver.Aspect
	tls := map[string]*ThreadLocalAspect{}
	rws := map[string]*RWAspect{}

	// First pass: thread-local fields and readers/writer pairs, which
	// later annotations reference by id.
	for _, jp := range p.Joinpoints() {
		for _, an := range jp.Annotations() {
			switch a := an.(type) {
			case ThreadLocalField:
				t := newThreadLocal(weaver.Exact(jp), a.ID)
				if a.Fresh != nil {
					t.InitFresh(a.Fresh)
				}
				if a.FromGlobal != nil {
					t.InitFromGlobal(a.FromGlobal)
				}
				if prev, dup := tls[a.ID]; dup {
					panic(fmt.Sprintf("core: duplicate @ThreadLocalField id %q (%s)", a.ID, prev.AspectName()))
				}
				tls[a.ID] = t
				out = append(out, named(t, "@ThreadLocalField", jp))
			case Reader:
				rw := rws[a.ID]
				if rw == nil {
					rw = ReadersWriter().Named("@ReadersWriter(" + a.ID + ")")
					rws[a.ID] = rw
				}
				rw.readers = append(rw.readers, weaver.Exact(jp))
			case Writer:
				rw := rws[a.ID]
				if rw == nil {
					rw = ReadersWriter().Named("@ReadersWriter(" + a.ID + ")")
					rws[a.ID] = rw
				}
				rw.writers = append(rw.writers, weaver.Exact(jp))
			}
		}
	}
	for _, rw := range rws {
		out = append(out, rw)
	}

	// Second pass: all remaining constructs.
	for _, jp := range p.Joinpoints() {
		for _, an := range jp.Annotations() {
			switch a := an.(type) {
			case Parallel:
				asp := newParallelRegion(weaver.Exact(jp)).Threads(a.Threads)
				out = append(out, named(asp, "@Parallel", jp))
			case For:
				asp := newForShare(weaver.Exact(jp)).Schedule(a.Schedule).Chunk(a.Chunk)
				if a.Custom != nil {
					asp.CustomSchedule(a.Custom)
				}
				if a.NoWait {
					asp.NoWait()
				}
				out = append(out, named(asp, "@For", jp))
			case Task:
				asp := newTask(weaver.Exact(jp))
				kind := "@Task"
				if d, ok := dependOf(jp); ok {
					asp.Depend(d)
					kind = "@Task+@Depend"
				}
				out = append(out, named(asp, kind, jp))
			case Depend:
				// Realised by the @Task/@FutureTask case; standalone it
				// orders nothing, which is always a composition bug.
				if !jp.HasAnnotation("Task") && !jp.HasAnnotation("FutureTask") {
					panic(fmt.Sprintf("core: @Depend on %s without @Task or @FutureTask", jp.FQN()))
				}
			case TaskWait:
				asp := newTaskWait(weaver.Exact(jp))
				if a.After {
					asp.After()
				}
				out = append(out, named(asp, "@TaskWait", jp))
			case FutureTask:
				asp := newFutureTask(weaver.Exact(jp))
				kind := "@FutureTask"
				if d, ok := dependOf(jp); ok {
					asp.Depend(d)
					kind = "@FutureTask+@Depend"
				}
				out = append(out, named(asp, kind, jp))
			case Ordered:
				out = append(out, named(newOrdered(weaver.Exact(jp)), "@Ordered", jp))
			case Critical:
				asp := newCritical(weaver.Exact(jp))
				if a.ID != "" {
					asp.ID(a.ID)
				}
				if a.PerKey > 0 {
					asp.PerKey(a.PerKey)
				}
				out = append(out, named(asp, "@Critical", jp))
			case BarrierBefore:
				out = append(out, named(newBarrier(weaver.Exact(jp), true, false), "@BarrierBefore", jp))
			case BarrierAfter:
				out = append(out, named(newBarrier(weaver.Exact(jp), false, true), "@BarrierAfter", jp))
			case Single:
				out = append(out, named(newSingle(weaver.Exact(jp)), "@Single", jp))
			case Master:
				out = append(out, named(newMaster(weaver.Exact(jp)), "@Master", jp))
			case Reduce:
				t := tls[a.ID]
				if t == nil {
					panic(fmt.Sprintf("core: @Reduce(id=%q) on %s has no matching @ThreadLocalField", a.ID, jp.FQN()))
				}
				out = append(out, named(newReduce(weaver.Exact(jp), t, a.Merge), "@Reduce", jp))
			case ThreadLocalField, Reader, Writer:
				// handled in the first pass
			default:
				// Unknown annotations are inert metadata, exactly like
				// unprocessed Java annotations.
			}
		}
	}
	return out
}

// dependOf returns the @Depend annotation attached to jp, if any.
func dependOf(jp *weaver.Joinpoint) (Depend, bool) {
	for _, an := range jp.Annotations() {
		if d, ok := an.(Depend); ok {
			return d, true
		}
	}
	return Depend{}, false
}

func named[A interface {
	weaver.Aspect
	Named(string) A
}](a A, kind string, jp *weaver.Joinpoint) weaver.Aspect {
	return a.Named(kind + "(" + jp.FQN() + ")")
}
