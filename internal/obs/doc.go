// Package obs is the runtime observability subsystem: an OMPT-style tool
// interface the rest of the runtime reports into. The runtime (internal/rt)
// carries emit points at every interesting transition — region fork/join,
// hot-team lease/retire, task create/schedule/complete, steal attempts,
// barrier waits, dependence releases, work-sharing encounters (including
// the parallel package's algorithm dispatch, which reports as ordinary
// work-sharing) — each guarded by a single atomic load of the published
// hook table. With no tool installed that load returns nil and the emit
// point is one predicted branch, so the runtime's allocation-free hot
// paths are unchanged.
//
// The built-in tracer records and never counts: while a trace is
// recording, its hooks append fixed-size records to per-worker ring
// buffers with no locks and no allocations on the emit path, and a drain
// pass converts them to Chrome trace-event JSON (loadable in Perfetto: one
// track per worker, nested phase slices, flow arrows from task spawn to
// task run and from dependence release to the released task). Event
// counts and latency histograms are the metrics registry's (EnableMetrics,
// ReadMetrics); pool and admission tallies are the runtime's.
//
// Custom tools install their own hook table with SetHooks, the OMPT
// analogue of registering a tool; the built-in tracer is installed with
// EnableTracing/StartTrace.
package obs
