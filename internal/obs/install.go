package obs

import "sync"

// Tool installation and composition. The runtime's emit points load one
// atomic hook-table pointer (active, in obs.go); this file decides what
// that pointer holds. Two consumer slots exist:
//
//   - the tool slot: the built-in tracer (EnableTracing) or a custom
//     table (SetHooks) — mutually exclusive, exactly as before metrics
//     existed;
//   - the metrics slot: the always-on metrics registry (EnableMetrics).
//
// With zero consumers, active is nil and the emit points take the
// disabled branch. With one, its table is published directly — no
// wrapper, no indirection beyond the hook call itself. With both, a
// fresh composed table fans each event out to every consumer; the
// composition is built here, at (un)install time, so the emit path never
// sees a closure allocated per call.

// installMu serializes every install/uninstall mutation and the derived
// rebuild of the published table.
var installMu sync.Mutex

// Consumer slots. toolHooks is the legacy single-tool slot; metricsHooks
// is the continuous-telemetry consumer that composes with it.
var (
	toolHooks    *Hooks
	metricsHooks *Hooks
)

// rebuildActiveLocked republishes the active table from the consumer
// slots. Callers hold installMu.
func rebuildActiveLocked() {
	var tables []*Hooks
	for _, t := range []*Hooks{toolHooks, metricsHooks} {
		if t != nil {
			tables = append(tables, t)
		}
	}
	switch len(tables) {
	case 0:
		active.Store(nil)
	case 1:
		active.Store(tables[0])
	default:
		active.Store(compose(tables))
	}
}

// fan builders: collapse a per-field callback list to nil (none), the
// single callback (no wrapper cost), or a fan-out closure.

func fan1[A any](fns []func(A)) func(A) {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	}
	return func(a A) {
		for _, f := range fns {
			f(a)
		}
	}
}

func fan2[A, B any](fns []func(A, B)) func(A, B) {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	}
	return func(a A, b B) {
		for _, f := range fns {
			f(a, b)
		}
	}
}

func fan3[A, B, C any](fns []func(A, B, C)) func(A, B, C) {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	}
	return func(a A, b B, c C) {
		for _, f := range fns {
			f(a, b, c)
		}
	}
}

func fan4[A, B, C, D any](fns []func(A, B, C, D)) func(A, B, C, D) {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	}
	return func(a A, b B, c C, d D) {
		for _, f := range fns {
			f(a, b, c, d)
		}
	}
}

// pick gathers the non-nil instances of one hook field across tables.
func pick[F any](tables []*Hooks, sel func(*Hooks) F, isNil func(F) bool) []F {
	var out []F
	for _, t := range tables {
		if f := sel(t); !isNil(f) {
			out = append(out, f)
		}
	}
	return out
}

// compose builds one table fanning each event out to every consumer that
// implements it. Closures are created here, once per rebuild; the emit
// path pays one extra indirect call per extra consumer and allocates
// nothing.
func compose(tables []*Hooks) *Hooks {
	p1 := func(sel func(*Hooks) func(WorkerID)) func(WorkerID) {
		return fan1(pick(tables, sel, func(f func(WorkerID)) bool { return f == nil }))
	}
	h := &Hooks{
		StealAttempt: p1(func(t *Hooks) func(WorkerID) { return t.StealAttempt }),
	}
	h.RegionFork = fan4(pick(tables,
		func(t *Hooks) func(WorkerID, uint64, int, int) { return t.RegionFork },
		func(f func(WorkerID, uint64, int, int)) bool { return f == nil }))
	h.RegionJoin = fan3(pick(tables,
		func(t *Hooks) func(WorkerID, uint64, int) { return t.RegionJoin },
		func(f func(WorkerID, uint64, int)) bool { return f == nil }))
	h.ImplicitBegin = fan3(pick(tables,
		func(t *Hooks) func(WorkerID, uint64, int) { return t.ImplicitBegin },
		func(f func(WorkerID, uint64, int)) bool { return f == nil }))
	h.ImplicitEnd = fan2(pick(tables,
		func(t *Hooks) func(WorkerID, uint64) { return t.ImplicitEnd },
		func(f func(WorkerID, uint64)) bool { return f == nil }))
	h.TeamLease = fan4(pick(tables,
		func(t *Hooks) func(WorkerID, uint64, int, bool) { return t.TeamLease },
		func(f func(WorkerID, uint64, int, bool)) bool { return f == nil }))
	h.TeamRetire = fan2(pick(tables,
		func(t *Hooks) func(uint64, int) { return t.TeamRetire },
		func(f func(uint64, int)) bool { return f == nil }))
	h.AdmitGrant = fan2(pick(tables,
		func(t *Hooks) func(uint64, int64) { return t.AdmitGrant },
		func(f func(uint64, int64)) bool { return f == nil }))
	h.TaskCreate = fan3(pick(tables,
		func(t *Hooks) func(WorkerID, uint64, TaskKind) { return t.TaskCreate },
		func(f func(WorkerID, uint64, TaskKind)) bool { return f == nil }))
	h.TaskSchedule = fan2(pick(tables,
		func(t *Hooks) func(WorkerID, uint64) { return t.TaskSchedule },
		func(f func(WorkerID, uint64)) bool { return f == nil }))
	h.TaskComplete = fan2(pick(tables,
		func(t *Hooks) func(WorkerID, uint64) { return t.TaskComplete },
		func(f func(WorkerID, uint64)) bool { return f == nil }))
	h.TaskInline = fan2(pick(tables,
		func(t *Hooks) func(WorkerID, uint64) { return t.TaskInline },
		func(f func(WorkerID, uint64)) bool { return f == nil }))
	h.StealSuccess = fan3(pick(tables,
		func(t *Hooks) func(WorkerID, uint64, WorkerID) { return t.StealSuccess },
		func(f func(WorkerID, uint64, WorkerID)) bool { return f == nil }))
	h.StealScan = fan2(pick(tables,
		func(t *Hooks) func(WorkerID, int) { return t.StealScan },
		func(f func(WorkerID, int)) bool { return f == nil }))
	h.BarrierArrive = fan2(pick(tables,
		func(t *Hooks) func(WorkerID, uint64) { return t.BarrierArrive },
		func(f func(WorkerID, uint64)) bool { return f == nil }))
	h.BarrierDepart = fan3(pick(tables,
		func(t *Hooks) func(WorkerID, uint64, int64) { return t.BarrierDepart },
		func(f func(WorkerID, uint64, int64)) bool { return f == nil }))
	h.DepRelease = fan2(pick(tables,
		func(t *Hooks) func(WorkerID, uint64) { return t.DepRelease },
		func(f func(WorkerID, uint64)) bool { return f == nil }))
	h.WorkBegin = fan3(pick(tables,
		func(t *Hooks) func(WorkerID, uint64, uint8) { return t.WorkBegin },
		func(f func(WorkerID, uint64, uint8)) bool { return f == nil }))
	h.WorkEnd = fan2(pick(tables,
		func(t *Hooks) func(WorkerID, uint64) { return t.WorkEnd },
		func(f func(WorkerID, uint64)) bool { return f == nil }))
	h.SpanBegin = fan2(pick(tables,
		func(t *Hooks) func(WorkerID, uint32) { return t.SpanBegin },
		func(f func(WorkerID, uint32)) bool { return f == nil }))
	h.SpanEnd = fan2(pick(tables,
		func(t *Hooks) func(WorkerID, uint32) { return t.SpanEnd },
		func(f func(WorkerID, uint32)) bool { return f == nil }))
	return h
}
