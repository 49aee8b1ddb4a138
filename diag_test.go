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
// gauges, with real traffic reflected in the values.
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
	// Handler() enabled metrics, so the region above must have counted.
	var entries float64
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "aomp_region_entries_total "); ok {
			entries, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				t.Fatalf("unparseable region entries %q", v)
			}
		}
	}
	if entries < 1 {
		t.Fatalf("aomp_region_entries_total = %v after a region ran", entries)
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

// /debug/aomp/stats must serve the combined runtime + metrics snapshot as
// JSON, including the tracer's ring accounting.
func TestDiagnosticsStatsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	defer EnableMetrics(false)

	resp, err := srv.Client().Get(srv.URL + "/debug/aomp/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var payload struct {
		Runtime struct {
			Trace struct {
				RingDrops     *uint64 `json:"RingDrops"`
				TraceRings    *int    `json:"TraceRings"`
				WorkersFolded *int    `json:"WorkersFolded"`
			}
		} `json:"runtime"`
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("stats is not valid JSON: %v", err)
	}
	if payload.Runtime.Trace.RingDrops == nil || payload.Runtime.Trace.TraceRings == nil ||
		payload.Runtime.Trace.WorkersFolded == nil {
		t.Fatal("stats JSON missing the ring-accounting fields")
	}
	if payload.Metrics == nil {
		t.Fatal("stats JSON missing the metrics snapshot")
	}
}

// RuntimeStats gathers tracer ring accounting with pool counters.
func TestRuntimeSnapshotAggregates(t *testing.T) {
	StartTrace()
	defer EnableTracing(false)
	before := RuntimeStats()
	p := NewProgram("t")
	region := p.Class("Demo").Proc("run", func() {})
	p.Use(ParallelRegion("call(* Demo.run(..))").Threads(2))
	p.MustWeave()
	region()
	st := RuntimeStats()
	if st.Trace.EventsRecorded <= before.Trace.EventsRecorded {
		t.Fatalf("Trace.EventsRecorded did not advance: %d -> %d",
			before.Trace.EventsRecorded, st.Trace.EventsRecorded)
	}
	if st.Pool.Leases <= before.Pool.Leases {
		t.Fatalf("Pool.Leases did not advance: %d -> %d", before.Pool.Leases, st.Pool.Leases)
	}
}

// /debug/aomp/trace must capture a bounded window, restore the tracer's
// prior install state, reject malformed durations, and refuse concurrent
// captures.
func TestDiagnosticsTraceEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	defer EnableMetrics(false)

	wasEnabled := TracingEnabled()
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
	if TracingEnabled() != wasEnabled {
		t.Fatalf("trace capture leaked tracer state: was %v, now %v", wasEnabled, TracingEnabled())
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

// /debug/aomp/flight must serve a valid Chrome trace whether or not the
// recorder is enabled, and ServeDiagnostics must bind a working listener.
func TestDiagnosticsFlightAndServe(t *testing.T) {
	srv, err := ServeDiagnostics("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDiagnostics: %v", err)
	}
	defer srv.Close()
	defer EnableMetrics(false)

	resp, err := http.Get("http://" + srv.Addr + "/debug/aomp/flight")
	if err != nil {
		t.Fatalf("GET flight: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !json.Valid(body) {
		t.Fatalf("flight endpoint: status %d, valid JSON %v", resp.StatusCode, json.Valid(body))
	}
	if got := resp.Header.Get("X-Aomp-Flight-Triggered"); got != "false" {
		t.Fatalf("untriggered flight header = %q, want false", got)
	}
}
