// Package obs is the runtime observability subsystem. The runtime
// (internal/rt) carries emit points at every interesting transition —
// region fork/join, hot-team lease/retire, task create/schedule/complete,
// steal attempts, barrier waits, dependence releases, work-sharing
// encounters (including the parallel package's algorithm dispatch, which
// reports as ordinary work-sharing) — and each loads the published Sinks
// once. Sinks holds the two consumers, the built-in tracer
// (EnableTracing) and the metrics registry (EnableMetrics), and has one
// method per event that feeds whichever of them is on. With both off the
// load returns nil and the emit point is one predicted branch, so the
// runtime's allocation-free hot paths are unchanged.
//
// The tracer records and never counts: while a trace is recording, each
// event appends a fixed-size record to a per-worker ring buffer with no
// locks and no allocations, and a drain pass converts them to Chrome
// trace-event JSON (loadable in Perfetto: one track per worker, nested
// phase slices, flow arrows from task spawn to task run and from
// dependence release to the released task). Event counts and latency
// histograms are the metrics registry's (ReadMetrics); pool and admission
// tallies are the runtime's. User-level instrumentation is not a third
// consumer but an aspect: TraceSpans emits spans into the tracer.
package obs
