package aomplib

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"aomplib/internal/obs"
)

// Production diagnostics: the always-on metrics registry, its Prometheus
// exposition, the flight recorder, and the HTTP surface that serves them.
// Handler mounts everything on one http.Handler a server embeds next to
// its own routes; ServeDiagnostics runs it standalone on a sidecar port.

// ------------------------------------------------------------- metrics --

// EnableMetrics turns the always-on metrics registry on or off, returning
// the previous setting. Enabled, every runtime emit point also feeds
// cache-line-sharded counters and log-bucketed latency histograms —
// region latency, barrier waits, admission queue waits, task
// spawn-to-run latency, steals, per-schedule loop shares — behind
// ReadMetrics and the /metrics endpoint. The record path touches only
// preallocated padded atomics (0 allocs/op); disabled (the default), emit
// points cost their usual one atomic load and predicted branch. Metrics
// compose with the tracer, the flight recorder and custom tools: enabling
// one never evicts another.
var EnableMetrics = obs.EnableMetrics

// MetricsEnabled reports whether the metrics registry is recording.
var MetricsEnabled = obs.MetricsEnabled

// ReadMetrics merges the registry's shards into one point-in-time
// snapshot. Safe from any goroutine at any time; counters are cumulative
// since the first EnableMetrics and never reset.
var ReadMetrics = obs.ReadMetrics

// MetricsSnapshot is the merged registry view returned by ReadMetrics.
type MetricsSnapshot = obs.MetricsSnapshot

// MetricsHistogram is one merged latency histogram of a MetricsSnapshot:
// cumulative log2 buckets in nanoseconds plus total count and sum.
type MetricsHistogram = obs.HistogramSnapshot

// MetricsHistogramBucket is one cumulative bucket of a MetricsHistogram.
type MetricsHistogramBucket = obs.HistogramBucket

// ScheduleShareCount is one schedule kind's loop-share counter in a
// MetricsSnapshot.
type ScheduleShareCount = obs.ScheduleShareCount

// WriteMetricsText renders the metrics registry as Prometheus text
// exposition (content type "text/plain; version=0.0.4") — what the
// /metrics endpoint serves, exposed directly for servers that register
// runtime metrics with their own exposition plumbing.
func WriteMetricsText(w io.Writer) error { return obs.WriteMetricsText(w, runtimeGauges()...) }

// ------------------------------------------------------ flight recorder --

// EnableFlightRecorder turns the flight recorder on or off, returning the
// previous setting. Enabled, the runtime continuously records its last
// few seconds of events (SetFlightWindow) into bounded per-worker rings —
// memory stays fixed regardless of uptime — and triggers (a region
// slower than SetFlightRegionLatencyThreshold, an admission reject spike
// per SetFlightRejectSpike) freeze that window so WriteFlightSnapshot can
// export the moments leading up to the anomaly as a Chrome trace.
var EnableFlightRecorder = obs.EnableFlight

// FlightRecorderEnabled reports whether the flight recorder is recording.
var FlightRecorderEnabled = obs.FlightEnabled

// SetFlightWindow sets how far back the flight recorder retains events,
// returning the previous window (default 5s).
var SetFlightWindow = obs.SetFlightWindow

// SetFlightRegionLatencyThreshold arms the flight recorder's slow-region
// trigger: a parallel region whose fork-to-join latency exceeds the
// duration freezes the flight window. Non-positive disarms; returns the
// previous threshold (zero = disarmed, the default).
var SetFlightRegionLatencyThreshold = obs.SetFlightRegionLatencyThreshold

// SetFlightRejectSpike arms the flight recorder's admission trigger: the
// given number of rejects inside one second freezes the flight window.
// Non-positive disarms; returns the previous setting (zero = disarmed,
// the default).
var SetFlightRejectSpike = obs.SetFlightRejectSpike

// FlightTriggered reports whether a flight trigger fired and its frozen
// capture awaits WriteFlightSnapshot.
var FlightTriggered = obs.FlightTriggered

// WriteFlightSnapshot writes the flight recorder's window as Chrome
// trace-event JSON (load it at ui.perfetto.dev). After a trigger it
// writes the capture frozen at the trigger moment and re-arms; otherwise
// it snapshots the live window without disturbing recording. The boolean
// reports which case applied.
var WriteFlightSnapshot = obs.WriteFlightSnapshot

// -------------------------------------------------------- HTTP surface --

// Handler returns the diagnostics HTTP handler, enabling the metrics
// registry as a side effect (a mounted-but-disabled /metrics would
// silently scrape zeros). Routes, relative to where the caller mounts it:
//
//	/metrics                Prometheus text exposition: the metrics
//	                        registry plus live pool, admission,
//	                        per-tenant and trace-ring families;
//	/debug/aomp/stats       RuntimeStats() and ReadMetrics() as JSON
//	                        (pool, admission, trace rings; counts and
//	                        latencies);
//	/debug/aomp/trace?sec=N Chrome trace of the next N seconds
//	                        (default 2, clamped to [0.1, 30]) — captures
//	                        serialize, concurrent requests get 503;
//	/debug/aomp/flight      the flight recorder's Chrome trace snapshot
//	                        (enable via EnableFlightRecorder).
//
// Mount it on a mux the process already serves, or pass the same routes
// to ServeDiagnostics for a standalone listener.
func Handler() http.Handler {
	EnableMetrics(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", serveMetrics)
	mux.HandleFunc("/debug/aomp/stats", serveStats)
	mux.HandleFunc("/debug/aomp/trace", serveTrace)
	mux.HandleFunc("/debug/aomp/flight", serveFlight)
	return mux
}

// ServeDiagnostics starts a standalone HTTP server for Handler's routes
// on addr (e.g. "127.0.0.1:9150") and returns once the listener is
// bound. The caller owns the returned server — Close (or Shutdown) it on
// the way down. Production processes that already run an HTTP server
// should mount Handler on their own mux instead.
func ServeDiagnostics(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: Handler()}
	go srv.Serve(ln)
	return srv, nil
}

// runtimeGauges builds the exposition families whose truth lives outside
// the metrics registry: pool occupancy, admission queue state, per-tenant
// admission tallies (a row for every known tenant, zeros included) and
// trace-ring accounting, sampled at scrape time.
func runtimeGauges() []obs.Family {
	rs := RuntimeStats()
	gauge := func(name, help string, v float64) obs.Family {
		return obs.Family{Name: "aomp_" + name, Help: help, Type: "gauge",
			Samples: []obs.Sample{{Value: v}}}
	}
	counter := func(name, help string, v uint64) obs.Family {
		return obs.Family{Name: "aomp_" + name, Help: help, Type: "counter",
			Samples: []obs.Sample{{Value: float64(v)}}}
	}
	tenants := func(name, help string, v func(TenantAdmissionStats) uint64) obs.Family {
		f := obs.Family{Name: "aomp_" + name, Help: help, Type: "counter"}
		for _, t := range rs.Admission.Tenants {
			f.Samples = append(f.Samples, obs.Sample{
				Labels: []obs.Label{{Name: "tenant", Value: t.Name}}, Value: float64(v(t))})
		}
		return f
	}
	return []obs.Family{
		tenants("tenant_admits_total", "Team leases granted per admission tenant.",
			func(t TenantAdmissionStats) uint64 { return t.Admitted }),
		tenants("tenant_queued_total", "Region entries per tenant that waited in the admission queue.",
			func(t TenantAdmissionStats) uint64 { return t.Queued }),
		tenants("tenant_rejects_total", "Lease requests refused per tenant (policy, full queue, timeout).",
			func(t TenantAdmissionStats) uint64 { return t.Rejected }),
		tenants("tenant_timeouts_total", "Refusals per tenant due to a queue-wait timeout.",
			func(t TenantAdmissionStats) uint64 { return t.TimedOut }),
		counter("pool_leases_total", "Team leases served by the hot-team pool machinery.", rs.Pool.Leases),
		counter("pool_hits_total", "Leases served by a cached pool team.", rs.Pool.Hits),
		gauge("pool_idle_teams", "Teams parked in the hot-team pool right now.", float64(rs.Pool.IdleTeams)),
		gauge("pool_idle_workers", "Workers parked in the hot-team pool right now.", float64(rs.Pool.IdleWorkers)),
		gauge("admission_queue_depth", "Admission waiters queued right now.", float64(rs.Admission.QueueDepth)),
		gauge("admission_held_slots", "Admission lease slots granted right now.", float64(rs.Admission.Held)),
		counter("admission_degraded_total", "Region entries that ran serialized without a lease.", rs.Admission.Degraded),
		counter("trace_ring_drops_total", "Trace events dropped by full or draining ring buffers.", rs.Trace.RingDrops),
		gauge("trace_rings", "Trace ring buffers allocated by the built-in tracer.", float64(rs.Trace.TraceRings)),
		gauge("trace_workers_folded", "Workers folded onto shared trace rings (id beyond the ring bound).", float64(rs.Trace.WorkersFolded)),
	}
}

func serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteMetricsText(w, runtimeGauges()...); err != nil {
		// Headers are gone; all we can do is cut the response short.
		return
	}
}

func serveStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Runtime RuntimeSnapshot `json:"runtime"`
		Metrics MetricsSnapshot `json:"metrics"`
	}{RuntimeStats(), ReadMetrics()})
}

// traceMu serializes /debug/aomp/trace captures: StartTrace/StopTrace
// drive one global tracer, so two overlapping captures would truncate
// each other.
var traceMu sync.Mutex

func serveTrace(w http.ResponseWriter, r *http.Request) {
	sec := 2.0
	if s := r.URL.Query().Get("sec"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		// NaN and ±Inf parse, but the clamp below cannot order them.
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			http.Error(w, fmt.Sprintf("bad sec parameter %q", s), http.StatusBadRequest)
			return
		}
		sec = v
	}
	if sec < 0.1 {
		sec = 0.1
	}
	if sec > 30 {
		sec = 30
	}
	if !traceMu.TryLock() {
		http.Error(w, "a trace capture is already running", http.StatusServiceUnavailable)
		return
	}
	defer traceMu.Unlock()

	// Capture restores the tracer's install state afterwards: a server
	// that keeps the tracer off should not find it on because somebody
	// curled a trace.
	wasEnabled := TracingEnabled()
	StartTrace()
	select {
	case <-time.After(time.Duration(sec * float64(time.Second))):
	case <-r.Context().Done():
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="aomp-trace.json"`)
	StopTrace(w)
	if !wasEnabled {
		EnableTracing(false)
	}
}

func serveFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="aomp-flight.json"`)
	// The header must precede the body, so report the pre-write trigger
	// state; WriteFlightSnapshot prefers the frozen capture when set.
	w.Header().Set("X-Aomp-Flight-Triggered", strconv.FormatBool(FlightTriggered()))
	WriteFlightSnapshot(w)
}
