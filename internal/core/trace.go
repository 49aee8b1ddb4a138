package core

import (
	"io"

	"aomplib/internal/obs"
	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// Tracing facade: instrumentation is the canonical crosscutting concern,
// so the library treats it exactly like its parallelism constructs — a
// runtime substrate (internal/obs) plus an aspect (TraceSpans) woven like
// any other. EnableTracing/StartTrace/StopTrace drive the built-in tracer;
// ReadRuntimeStats gathers its ring accounting with the pool and admission
// tallies.

// EnableTracing installs (or uninstalls) the built-in runtime tracer and
// returns whether it was previously installed. The tracer records the
// timeline of runtime transitions — region forks, team leases, task
// spawns, steals, barrier waits, dependence releases — once StartTrace
// starts buffering; it counts nothing (event counts are the metrics
// registry's, obs.EnableMetrics). Disabled (the default), the runtime's
// emit points cost one atomic load and a predicted branch each, keeping
// the allocation-free hot paths intact.
func EnableTracing(on bool) bool { return obs.EnableTracing(on) }

// TracingEnabled reports whether the built-in tracer is installed.
func TracingEnabled() bool { return obs.TracingEnabled() }

// StartTrace begins recording runtime events into per-worker ring buffers
// (enabling the tracer if needed), discarding any previous trace.
func StartTrace() { obs.StartTrace() }

// StopTrace ends the recording, drains the ring buffers and writes the
// timeline as Chrome trace-event JSON to w — load it at ui.perfetto.dev:
// one track per worker, nested region/work/task slices, barrier-wait
// slices, and flow arrows from task spawn to task run.
func StopTrace(w io.Writer) error { return obs.StopTrace(w) }

// RuntimeSnapshot gathers the runtime's own tallies: the tracer's ring
// accounting, the hot-team pool's lease counters, and the multi-tenant
// admission controller's queue and per-tenant counters. Event counts and
// latencies are the metrics registry's (obs.ReadMetrics).
type RuntimeSnapshot struct {
	// Trace is the built-in tracer's ring accounting (zero until
	// StartTrace has recorded).
	Trace obs.Stats
	// Pool is the hot-team pool snapshot, always live.
	Pool rt.PoolStats
	// Admission is the multi-tenant admission snapshot, always live
	// (zero-counter when admission control has never been enabled).
	Admission rt.AdmissionStats
}

// ReadRuntimeStats snapshots the runtime: tracer ring accounting plus pool
// and admission state.
func ReadRuntimeStats() RuntimeSnapshot {
	return RuntimeSnapshot{
		Trace:     obs.ReadStats(),
		Pool:      rt.ReadPoolStats(),
		Admission: rt.ReadAdmissionStats(),
	}
}

// SetTraceHooks installs a custom tool's hook table in place of (or
// alongside the absence of) the built-in tracer — the OMPT analogue of
// tool registration. nil uninstalls; the previous table is returned.
func SetTraceHooks(h *obs.Hooks) *obs.Hooks { return obs.SetHooks(h) }

// PrecTrace places span advice just inside the parallel region, so a span
// woven on a region method brackets each worker's share (one slice per
// worker track), and a span on an inner method nests inside its caller's.
const PrecTrace = 98

// TraceAspect marks matched methods as named trace spans: while a trace is
// recording, every call emits a begin/end pair that the Chrome export
// renders as a slice named after the joinpoint, on the calling worker's
// track. Instrumentation stays out of the base program, woven and
// unplugged like any other aspect.
type TraceAspect struct {
	name    string
	matcher weaver.Matcher
}

// TraceSpans binds trace spans to the methods selected by pc.
func TraceSpans(pc string) *TraceAspect {
	return &TraceAspect{name: "TraceSpans", matcher: mustPC(pc)}
}

// Named renames the aspect module.
func (a *TraceAspect) Named(name string) *TraceAspect { a.name = name; return a }

// AspectName implements weaver.Aspect.
func (a *TraceAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *TraceAspect) Bindings() []weaver.Binding {
	adv := advice{
		name:        "trace",
		prec:        PrecTrace,
		needsWorker: true,
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			// The span name is interned once at weave time; the per-call
			// path emits only scalars.
			id := obs.InternName(jp.FQN())
			return func(c *weaver.Call) {
				h := obs.Active()
				if h == nil {
					next(c)
					return
				}
				gid := obs.NoWorker
				if c.Worker != nil {
					gid = c.Worker.ObsID()
				}
				if h.SpanBegin != nil {
					h.SpanBegin(gid, id)
				}
				if h.SpanEnd != nil {
					defer h.SpanEnd(gid, id)
				}
				next(c)
			}
		},
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}
