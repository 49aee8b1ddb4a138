package aomplib

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"aomplib/internal/obs"
	"aomplib/internal/rt"
)

// The diagnostics handler's /metrics output must pass the strict
// exposition lint and carry both registry counters and the live runtime
// gauges, with real traffic reflected in the values. Each count is
// exported once: no family restates another.
func TestDiagnosticsMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	defer EnableMetrics(false)

	rt.Region(2, func(w *rt.Worker) {})

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("wrong exposition content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	text := string(body)
	if err := obs.LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("/metrics fails the exposition lint: %v\n%s", err, text)
	}
	for _, fam := range []string{
		"aomp_region_entries_total",
		"aomp_region_latency_seconds_bucket",
		"aomp_pool_idle_workers",
		"aomp_admission_queue_depth",
		"aomp_trace_ring_drops_total",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("/metrics missing family %s:\n%s", fam, text)
		}
	}
	for _, fam := range []string{
		"aomp_pool_leases_total",
		"aomp_pool_hits_total",
		"aomp_barrier_waits_total",
		"aomp_admission_degraded_total",
	} {
		if strings.Contains(text, fam) {
			t.Fatalf("/metrics restates another family's count as %s:\n%s", fam, text)
		}
	}
	// Handler() enabled metrics, so the pooled region above must have
	// counted as a hit or a cold lease.
	var leased float64
	for _, line := range strings.Split(text, "\n") {
		for _, lease := range []string{"hit", "cold"} {
			if v, ok := strings.CutPrefix(line, `aomp_region_entries_total{lease="`+lease+`"} `); ok {
				n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					t.Fatalf("unparseable region entries %q", v)
				}
				leased += n
			}
		}
	}
	if leased < 1 {
		t.Fatalf("aomp_region_entries_total{lease=hit|cold} = %v after a region ran", leased)
	}
}

// /metrics must carry one row per known admission tenant in each
// aomp_tenant_*_total family, labelled by the EnterTenant name and read
// from the runtime's own tallies — a tenant that never entered a region
// included, at zero.
func TestDiagnosticsMetricsTenantRows(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	defer EnableMetrics(false)
	defer SetAdmissionControl(SetAdmissionControl(true))

	tok := EnterTenant("diag-busy-tenant")
	rt.Region(2, func(w *rt.Worker) {})
	tok.Exit()
	EnterTenant("diag-idle-tenant").Exit()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if err := obs.LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("/metrics fails the exposition lint: %v\n%s", err, text)
	}
	row := func(family, tenant string) float64 {
		t.Helper()
		prefix := family + `{tenant="` + tenant + `"} `
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("unparseable %s%s", prefix, v)
				}
				return f
			}
		}
		t.Fatalf("/metrics has no %s row for tenant %q:\n%s", family, tenant, text)
		return 0
	}
	if got := row("aomp_tenant_admits_total", "diag-busy-tenant"); got < 1 {
		t.Fatalf("busy tenant admits = %v, want >= 1", got)
	}
	for _, fam := range []string{"aomp_tenant_admits_total", "aomp_tenant_queued_total",
		"aomp_tenant_rejects_total", "aomp_tenant_timeouts_total"} {
		if got := row(fam, "diag-idle-tenant"); got != 0 {
			t.Fatalf("idle tenant %s = %v, want 0", fam, got)
		}
	}
}

// /debug/aomp/stats must serve {pool, admission, trace, metrics} as JSON,
// each a live view: a traced pooled region moves the tracer's ring
// accounting and the pool's leases.
func TestDiagnosticsStatsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	defer EnableMetrics(false)
	StartTrace()
	defer EnableTracing(false)

	type payload struct {
		Pool      *TeamPoolStats     `json:"pool"`
		Admission *AdmissionSnapshot `json:"admission"`
		Trace     *obs.Stats         `json:"trace"`
		Metrics   *MetricsSnapshot   `json:"metrics"`
	}
	get := func() payload {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/debug/aomp/stats")
		if err != nil {
			t.Fatalf("GET stats: %v", err)
		}
		defer resp.Body.Close()
		var p payload
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatalf("stats is not valid JSON: %v", err)
		}
		if p.Pool == nil || p.Admission == nil || p.Trace == nil || p.Metrics == nil {
			t.Fatalf("stats JSON lacks a section: %+v", p)
		}
		return p
	}
	before := get()
	rt.Region(2, func(w *rt.Worker) {})
	after := get()
	if after.Trace.EventsRecorded <= before.Trace.EventsRecorded {
		t.Errorf("trace.EventsRecorded did not advance: %d -> %d", before.Trace.EventsRecorded, after.Trace.EventsRecorded)
	}
	if after.Pool.Leases != before.Pool.Leases+1 {
		t.Errorf("pool.Leases %d -> %d, want one more", before.Pool.Leases, after.Pool.Leases)
	}
	if after.Metrics.RegionEntries != before.Metrics.RegionEntries+1 {
		t.Errorf("metrics.RegionEntries %d -> %d, want one more", before.Metrics.RegionEntries, after.Metrics.RegionEntries)
	}
}

// A woven parallel region moves both runtime aggregates the stats endpoint
// serves: the tracer's ring accounting and the pool's leases (a view of
// the metrics registry, so metrics are on for the run).
func TestRuntimeSnapshotAggregates(t *testing.T) {
	defer EnableMetrics(EnableMetrics(true))
	StartTrace()
	defer EnableTracing(false)
	beforeTrace, beforePool := obs.ReadStats(), PoolStats()
	p := NewProgram("t")
	region := p.Class("Demo").Proc("run", func() {})
	p.Use(ParallelRegion("call(* Demo.run(..))").Threads(2))
	p.MustWeave()
	region()
	trace, pool := obs.ReadStats(), PoolStats()
	if trace.EventsRecorded <= beforeTrace.EventsRecorded {
		t.Fatalf("Trace.EventsRecorded did not advance: %d -> %d",
			beforeTrace.EventsRecorded, trace.EventsRecorded)
	}
	if pool.Leases <= beforePool.Leases {
		t.Fatalf("Pool.Leases did not advance: %d -> %d", beforePool.Leases, pool.Leases)
	}
}

// /debug/aomp/trace must capture a bounded window, restore the tracer's
// prior on/off state and reject malformed durations.
func TestDiagnosticsTraceEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	defer EnableMetrics(false)

	wasEnabled := obs.TracingEnabled()
	resp, err := srv.Client().Get(srv.URL + "/debug/aomp/trace?sec=0.01") // clamped to 0.1
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace status %d: %s", resp.StatusCode, body)
	}
	if !json.Valid(body) {
		t.Fatalf("trace is not valid JSON: %.200s", body)
	}
	if obs.TracingEnabled() != wasEnabled {
		t.Fatalf("trace capture leaked tracer state: was %v, now %v", wasEnabled, obs.TracingEnabled())
	}

	// Not a number, or a number the [0.1, 30] clamp cannot order.
	for _, sec := range []string{"bogus", "NaN", "Inf", "-Inf"} {
		resp, err = srv.Client().Get(srv.URL + "/debug/aomp/trace?sec=" + sec)
		if err != nil {
			t.Fatalf("GET trace?sec=%s: %v", sec, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("sec=%s got status %d, want 400", sec, resp.StatusCode)
		}
	}
}

// /debug/aomp/trace must not touch a trace the program is recording: it
// answers 503, and the program's own StopTrace still holds what it
// recorded before the request.
func TestDiagnosticsTraceLeavesProgramTrace(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	defer EnableMetrics(false)
	defer EnableTracing(EnableTracing(false))

	StartTrace()
	rt.Region(3, func(w *rt.Worker) {})
	resp, err := srv.Client().Get(srv.URL + "/debug/aomp/trace?sec=0.1")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("trace endpoint during the program's trace: status %d, want 503", resp.StatusCode)
	}
	var buf strings.Builder
	if err := StopTrace(&buf); err != nil {
		t.Fatalf("StopTrace: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &trace); err != nil {
		t.Fatalf("program trace is not valid JSON: %v", err)
	}
	for _, ev := range trace.TraceEvents {
		if ev.Name == "region" && ev.Args["size"] == float64(3) {
			return
		}
	}
	t.Fatal("the program's trace lost its region slice to the endpoint's capture")
}

// ServeDiagnostics must bind a working listener serving Handler's routes,
// and /debug/aomp/flight is not one of them.
func TestDiagnosticsFlightAndServe(t *testing.T) {
	srv, err := ServeDiagnostics("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDiagnostics: %v", err)
	}
	defer srv.Close()
	defer EnableMetrics(false)

	resp, err := http.Get("http://" + srv.Addr + "/debug/aomp/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !json.Valid(body) {
		t.Fatalf("stats endpoint: status %d, valid JSON %v", resp.StatusCode, json.Valid(body))
	}

	resp, err = http.Get("http://" + srv.Addr + "/debug/aomp/flight")
	if err != nil {
		t.Fatalf("GET flight: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("flight endpoint: status %d, want 404", resp.StatusCode)
	}
}
