package aomplib

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"aomplib/internal/obs"
)

// Production diagnostics: the always-on metrics registry, its Prometheus
// exposition, and the HTTP surface that serves them.
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
// compose with the tracer: enabling one never evicts the other.
func EnableMetrics(on bool) bool { return obs.EnableMetrics(on) }

// ReadMetrics merges the registry's shards into one point-in-time
// snapshot. Safe from any goroutine at any time; counters are cumulative
// since the first EnableMetrics and never reset.
func ReadMetrics() MetricsSnapshot { return obs.ReadMetrics() }

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

// -------------------------------------------------------- HTTP surface --

// Handler returns the diagnostics HTTP handler, enabling the metrics
// registry as a side effect (a mounted-but-disabled /metrics would
// silently scrape zeros). Routes, relative to where the caller mounts it:
//
//	/metrics                Prometheus text exposition: the metrics
//	                        registry plus live pool, admission,
//	                        per-tenant and trace-ring families;
//	/debug/aomp/stats       JSON {pool, admission, trace, metrics}:
//	                        PoolStats(), AdmissionStats(), the tracer's
//	                        ring accounting and ReadMetrics();
//	/debug/aomp/trace?sec=N Chrome trace of the next N seconds
//	                        (default 2, clamped to [0.1, 30]); 503 while
//	                        any trace is recording, the program's own
//	                        (StartTrace) included.
//
// Mount it on a mux the process already serves, or pass the same routes
// to ServeDiagnostics for a standalone listener.
func Handler() http.Handler {
	EnableMetrics(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", serveMetrics)
	mux.HandleFunc("/debug/aomp/stats", serveStats)
	mux.HandleFunc("/debug/aomp/trace", serveTrace)
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
	pool, adm, tr := PoolStats(), AdmissionStats(), obs.ReadStats()
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
		for _, t := range adm.Tenants {
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
		gauge("pool_idle_teams", "Teams parked in the hot-team pool right now.", float64(pool.IdleTeams)),
		gauge("pool_idle_workers", "Workers parked in the hot-team pool right now.", float64(pool.IdleWorkers)),
		gauge("admission_queue_depth", "Admission waiters queued right now.", float64(adm.QueueDepth)),
		gauge("admission_held_slots", "Admission lease slots granted right now.", float64(adm.Held)),
		counter("trace_ring_drops_total", "Trace events dropped by full or draining ring buffers.", tr.RingDrops),
		gauge("trace_rings", "Trace ring buffers allocated by the built-in tracer.", float64(tr.TraceRings)),
		gauge("trace_workers_folded", "Workers folded onto shared trace rings (id beyond the ring bound).", float64(tr.WorkersFolded)),
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
		Pool      TeamPoolStats     `json:"pool"`
		Admission AdmissionSnapshot `json:"admission"`
		Trace     obs.Stats         `json:"trace"`
		Metrics   MetricsSnapshot   `json:"metrics"`
	}{PoolStats(), AdmissionStats(), obs.ReadStats(), ReadMetrics()})
}

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
	// The capture claims the one global tracer only when no trace is
	// recording, so it never discards or ends the program's own trace, and
	// restores the tracer's on/off state afterwards: a server that keeps
	// the tracer off should not find it on because somebody curled a trace.
	wasEnabled := obs.TracingEnabled()
	if !obs.TryStartTrace() {
		http.Error(w, "a trace is already recording", http.StatusServiceUnavailable)
		return
	}
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
