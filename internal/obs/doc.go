// Package obs is the runtime observability subsystem. The runtime
// (internal/rt) carries emit points at every interesting transition —
// region entries with their team leases, worker shares, team retires, task
// create/run, steal attempts, barrier waits, dependence releases,
// work-sharing shares (including the parallel package's algorithm
// dispatch, which reports as ordinary work-sharing) — and each loads the
// published Sinks once. Sinks holds the two consumers, the built-in tracer
// (EnableTracing) and the metrics registry (EnableMetrics), and has one
// method per event that feeds whichever of them is on. With both off the
// load returns nil and the emit point is one predicted branch, so the
// runtime's allocation-free hot paths are unchanged.
//
// A duration is one event, written when it ends: the emit point passes
// the start it read and the end, both Now readings, and the tracer and the
// registry share them. The tracer records and never counts: while a trace
// is recording, each event appends a fixed-size record to a per-worker
// ring buffer with no locks and no allocations, and a drain pass converts
// them to Chrome trace-event JSON (loadable in Perfetto: one track per
// worker, nested slices, flow arrows from task spawn to task run and from
// dependence release to the released task). Event counts and latency
// histograms are the metrics registry's (ReadMetrics); pool and admission
// tallies are the runtime's.
package obs
