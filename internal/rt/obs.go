package rt

import (
	"sync/atomic"

	"aomplib/internal/obs"
)

// Observability wiring. Every emit point loads the published consumers
// once (obs.Active) and skips everything on nil: the disabled path is a
// single atomic load and a predicted branch, which keeps the 0 allocs/op
// region-entry and task-spawn gates intact with tracing and metrics off.
// An event only the tracer records is guarded by Tracing() where building
// it costs a worker lookup, a clock read or a defer, so a metrics-only
// process pays nothing for it. Emit points pass only scalars (ids, sizes,
// nanoseconds), so the enabled path allocates nothing either.

// workerGIDs hands out process-unique worker identities (trace tracks).
var workerGIDs atomic.Int32

// teamTIDs hands out process-unique team identities for trace events.
var teamTIDs atomic.Uint64

// taskTraceIDs hands out task identities for trace flow arrows. Drawn only
// while a consumer is on, so the disabled spawn path stays untouched.
var taskTraceIDs atomic.Uint64

func nextTaskTraceID() uint64 { return taskTraceIDs.Add(1) }

// curGID reports the observability identity of the calling goroutine's
// worker context, or obs.NoWorker outside any region. Only called on
// enabled emit paths.
func curGID() obs.WorkerID {
	if w := Current(); w != nil {
		return w.gid
	}
	return obs.NoWorker
}

// stampTask assigns t a trace identity and a creation time and reports
// its creation on its spawner's track (NoWorker outside a region). h is
// non-nil (the caller already gated on it).
func stampTask(h *obs.Sinks, t *task, kind obs.TaskKind) {
	gid := obs.NoWorker
	if w := t.spawner; w != nil {
		gid = w.gid
	}
	t.traceID, t.created = nextTaskTraceID(), obs.Now()
	h.TaskCreate(gid, t.traceID, kind, t.created)
}
