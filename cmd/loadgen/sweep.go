package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"aomplib"
	"aomplib/internal/graph"
	"aomplib/internal/jgf/montecarlo"
	"aomplib/internal/sched"
)

// Config describes one load-test run: the multi-tenant runtime shape
// (admission slots, team width, policy, quotas) and the offered-load sweep
// (closed-loop clients per tenant, one sweep point per entry).
type Config struct {
	Tenants    int           // concurrent tenants (named tenant-0..N-1)
	MaxTeams   int           // admission lease slots over the hot-team pool
	TeamSize   int           // workers per parallel region
	Kernel     string        // pagerank | montecarlo | mix
	Policy     string        // block | timeout | reject
	Timeout    time.Duration // queue-wait bound for the timeout policy
	Quota      int           // per-tenant concurrent-lease cap (0 = none)
	QueueBound int           // admission queue bound (0 = library default)
	Sweep      []int         // clients per tenant, one point per entry
	Duration   time.Duration // wall time per sweep point
	HTTP       bool          // drive requests through a local HTTP server
	Metrics    bool          // mount the aomplib diagnostics (/metrics, /debug/aomp/*)
	Addr       string        // listen address ("" = loopback ephemeral)
	Seed       int64         // graph/workload seed

	// Check thresholds (applied by Report.Check).
	FairMin float64       // min acceptable min/max tenant throughput ratio
	P99Max  time.Duration // max acceptable p99 latency (0 = unchecked)
}

// DefaultConfig is the shape the CI smoke and the README quick-start use:
// four tenants arbitrated over two admission slots of two-worker teams.
func DefaultConfig() Config {
	return Config{
		Tenants:  4,
		MaxTeams: 2,
		TeamSize: 2,
		Kernel:   "pagerank",
		Policy:   "timeout",
		Timeout:  5 * time.Millisecond,
		Sweep:    []int{1, 2, 4},
		Duration: 2 * time.Second,
		Seed:     1,
		FairMin:  0.25,
	}
}

// TenantPoint is one tenant's slice of a sweep point.
type TenantPoint struct {
	Name     string  `json:"name"`
	Requests int     `json:"requests"`
	RPS      float64 `json:"rps"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	Queued   int     `json:"queued"`
	Rejected int     `json:"rejected"`
	TimedOut int     `json:"timed_out"`
}

// Point is one offered-load level of the sweep.
type Point struct {
	ClientsPerTenant int     `json:"clients_per_tenant"`
	Clients          int     `json:"clients"`
	DurationSec      float64 `json:"duration_sec"`
	Requests         int     `json:"requests"`
	ThroughputRPS    float64 `json:"throughput_rps"`
	P50Ms            float64 `json:"p50_ms"`
	P99Ms            float64 `json:"p99_ms"`
	MaxMs            float64 `json:"max_ms"`
	Queued           int     `json:"queued"`
	Rejected         int     `json:"rejected"`
	TimedOut         int     `json:"timed_out"`
	RejectionRate    float64 `json:"rejection_rate"`
	// Fairness is min/max tenant throughput: 1.0 is perfectly fair, and a
	// tenant below FairMin of the best tenant counts as starved.
	Fairness float64       `json:"fairness"`
	Starved  []string      `json:"starved,omitempty"`
	Tenants  []TenantPoint `json:"tenants"`
}

// Report is the loadgen output, serialised as JSON.
type Report struct {
	Config    Config                    `json:"config"`
	Points    []Point                   `json:"points"`
	Admission aomplib.AdmissionSnapshot `json:"admission"`
}

// Check validates the report against the config thresholds: no starved
// tenants at any point, and p99 under the bound when one is set.
func (r *Report) Check() error {
	var probs []string
	for _, p := range r.Points {
		if len(p.Starved) > 0 {
			probs = append(probs, fmt.Sprintf(
				"point %d clients/tenant: starved tenants %v (fairness %.3f < %.3f)",
				p.ClientsPerTenant, p.Starved, p.Fairness, r.Config.FairMin))
		}
		if r.Config.P99Max > 0 && p.P99Ms > float64(r.Config.P99Max)/1e6 {
			probs = append(probs, fmt.Sprintf(
				"point %d clients/tenant: p99 %.2fms over bound %v",
				p.ClientsPerTenant, p.P99Ms, r.Config.P99Max))
		}
		if p.Requests == 0 {
			probs = append(probs, fmt.Sprintf(
				"point %d clients/tenant: no requests completed", p.ClientsPerTenant))
		}
	}
	if len(probs) > 0 {
		return fmt.Errorf("loadgen check failed:\n  %s", strings.Join(probs, "\n  "))
	}
	return nil
}

// outcome is what one request observed on its tenant token.
type outcome struct {
	lat      time.Duration
	queued   bool
	rejected bool
	timedOut bool
}

// clientStats accumulates one closed-loop client's outcomes (merged per
// tenant after the point; no sharing during the run).
type clientStats struct {
	lats     []time.Duration
	queued   int
	rejected int
	timedOut int
}

func (s *clientStats) add(o outcome) {
	s.lats = append(s.lats, o.lat)
	if o.queued {
		s.queued++
	}
	if o.rejected {
		s.rejected++
	}
	if o.timedOut {
		s.timedOut++
	}
}

// buildKernels returns one independent request function per client slot.
// PageRank instances share one power-law graph (the read-only part);
// Monte Carlo instances are self-contained. Every call of a returned
// function enters exactly one parallel region.
func buildKernels(cfg Config, clients int) ([]func(), error) {
	kernels := make([]func(), clients)
	var g *graph.Graph
	newPagerank := func() func() {
		if g == nil {
			g = graph.NewPowerLaw(1500, 8, cfg.Seed)
		}
		pr := graph.NewPageRank(g, 0.85, 2)
		run, _ := graph.BuildAomp(pr, cfg.TeamSize, sched.Dynamic, 64)
		return run
	}
	newMontecarlo := func() func() {
		inst := montecarlo.NewAomp(montecarlo.Params{Runs: 300, Steps: 60}, cfg.TeamSize)
		inst.Setup()
		return inst.Kernel
	}
	for i := range kernels {
		switch cfg.Kernel {
		case "pagerank":
			kernels[i] = newPagerank()
		case "montecarlo":
			kernels[i] = newMontecarlo()
		case "mix":
			if i%2 == 0 {
				kernels[i] = newPagerank()
			} else {
				kernels[i] = newMontecarlo()
			}
		default:
			return nil, fmt.Errorf("unknown kernel %q (pagerank, montecarlo, mix)", cfg.Kernel)
		}
	}
	return kernels, nil
}

// serveOne runs one request under the named tenant and reports what the
// admission controller did with it.
func serveOne(tenant string, work func()) outcome {
	tok := aomplib.EnterTenant(tenant)
	defer tok.Exit()
	start := time.Now()
	work()
	return outcome{
		lat:      time.Since(start),
		queued:   tok.Queued() > 0,
		rejected: tok.Rejected() > 0,
		timedOut: tok.TimedOut() > 0,
	}
}

func parsePolicy(s string) (aomplib.AdmitPolicy, error) {
	switch s {
	case "block":
		return aomplib.AdmitBlock, nil
	case "timeout":
		return aomplib.AdmitTimeout, nil
	case "reject":
		return aomplib.AdmitReject, nil
	}
	return 0, fmt.Errorf("unknown policy %q (block, timeout, reject)", s)
}

func percentileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / 1e6
}

// runSweep configures the runtime per cfg and drives every sweep point:
// Tenants×clients closed-loop request goroutines hammering the admission
// layer for cfg.Duration each, directly or through a local HTTP server.
func runSweep(cfg Config) (*Report, error) {
	if cfg.Tenants < 1 || cfg.MaxTeams < 1 || cfg.TeamSize < 1 || len(cfg.Sweep) == 0 {
		return nil, fmt.Errorf("config needs >=1 tenant, team, worker and sweep point: %+v", cfg)
	}
	switch {
	case cfg.Duration <= 0:
		return nil, fmt.Errorf("-duration %v is not a positive wall time", cfg.Duration)
	case !(cfg.FairMin >= 0 && cfg.FairMin <= 1): // NaN fails both
		return nil, fmt.Errorf("-fairmin %v is not a throughput ratio in [0,1]", cfg.FairMin)
	case cfg.Quota < 0 || cfg.QueueBound < 0 || cfg.Timeout < 0 || cfg.P99Max < 0:
		return nil, fmt.Errorf("negative bound (-quota %d, -queue %d, -timeout %v, -p99max %v)",
			cfg.Quota, cfg.QueueBound, cfg.Timeout, cfg.P99Max)
	}
	policy, err := parsePolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}

	maxClients := 0
	for _, c := range cfg.Sweep {
		if c < 1 {
			return nil, fmt.Errorf("sweep point %d is not a positive client count", c)
		}
		if cfg.Tenants*c > maxClients {
			maxClients = cfg.Tenants * c
		}
	}
	kernels, err := buildKernels(cfg, maxClients)
	if err != nil {
		return nil, err
	}

	// Runtime shape: a hot-team pool sized to the admission slots, so the
	// arbitrated teams stay warm while saturation traffic degrades instead
	// of thrashing the cache.
	prevPool := aomplib.SetPoolSize(cfg.MaxTeams * cfg.TeamSize)
	defer aomplib.SetPoolSize(prevPool)
	prevOn := aomplib.SetAdmissionControl(true)
	defer aomplib.SetAdmissionControl(prevOn)
	prevPolicy, prevTimeout := aomplib.SetAdmitPolicy(policy, cfg.Timeout)
	defer aomplib.SetAdmitPolicy(prevPolicy, prevTimeout)
	prevMax := aomplib.SetAdmitMaxTeams(cfg.MaxTeams)
	defer aomplib.SetAdmitMaxTeams(prevMax)
	if cfg.QueueBound > 0 {
		prevQB := aomplib.SetAdmitQueueBound(cfg.QueueBound)
		defer aomplib.SetAdmitQueueBound(prevQB)
	}
	tenantName := func(t int) string { return fmt.Sprintf("tenant-%d", t) }
	if cfg.Quota > 0 {
		for t := 0; t < cfg.Tenants; t++ {
			prev := aomplib.SetTenantQuota(tenantName(t), cfg.Quota)
			defer aomplib.SetTenantQuota(tenantName(t), prev)
		}
	}

	// request(client, tenant) issues one request and returns its outcome.
	request := func(client int, tenant string) (outcome, error) {
		return serveOne(tenant, kernels[client]), nil
	}
	if cfg.HTTP {
		srv, httpReq, err := startHTTPServer(cfg, kernels)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		request = httpReq
	} else if cfg.Metrics {
		// No request server to share: serve the diagnostics standalone so
		// a scraper can still watch the run.
		addr := cfg.Addr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		srv, err := aomplib.ServeDiagnostics(addr)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "loadgen: diagnostics on http://%s/metrics\n", srv.Addr)
	}

	rep := &Report{Config: cfg}
	for _, perTenant := range cfg.Sweep {
		clients := cfg.Tenants * perTenant
		stats := make([]clientStats, clients)
		deadline := time.Now().Add(cfg.Duration)
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tenant := tenantName(c % cfg.Tenants)
				for time.Now().Before(deadline) {
					o, err := request(c, tenant)
					if err != nil {
						errs <- err
						return
					}
					stats[c].add(o)
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errs)
		if err := <-errs; err != nil {
			return nil, err
		}

		rep.Points = append(rep.Points, summarize(cfg, perTenant, elapsed, stats, tenantName))
	}
	rep.Admission = aomplib.AdmissionStats()
	return rep, nil
}

// summarize folds the point's client stats into per-tenant and aggregate
// latency/throughput/fairness numbers.
func summarize(cfg Config, perTenant int, elapsed time.Duration, stats []clientStats, tenantName func(int) string) Point {
	pt := Point{
		ClientsPerTenant: perTenant,
		Clients:          len(stats),
		DurationSec:      elapsed.Seconds(),
	}
	var all []time.Duration
	for t := 0; t < cfg.Tenants; t++ {
		tp := TenantPoint{Name: tenantName(t)}
		var lats []time.Duration
		for c := t; c < len(stats); c += cfg.Tenants {
			s := &stats[c]
			tp.Requests += len(s.lats)
			tp.Queued += s.queued
			tp.Rejected += s.rejected
			tp.TimedOut += s.timedOut
			lats = append(lats, s.lats...)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		tp.RPS = float64(tp.Requests) / elapsed.Seconds()
		tp.P50Ms = percentileMs(lats, 0.50)
		tp.P99Ms = percentileMs(lats, 0.99)
		all = append(all, lats...)
		pt.Requests += tp.Requests
		pt.Queued += tp.Queued
		pt.Rejected += tp.Rejected
		pt.TimedOut += tp.TimedOut
		pt.Tenants = append(pt.Tenants, tp)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pt.ThroughputRPS = float64(pt.Requests) / elapsed.Seconds()
	pt.P50Ms = percentileMs(all, 0.50)
	pt.P99Ms = percentileMs(all, 0.99)
	if len(all) > 0 {
		pt.MaxMs = float64(all[len(all)-1]) / 1e6
	}
	if pt.Requests > 0 {
		pt.RejectionRate = float64(pt.Rejected) / float64(pt.Requests)
	}

	minRPS, maxRPS := math.Inf(1), 0.0
	for _, tp := range pt.Tenants {
		minRPS = math.Min(minRPS, tp.RPS)
		maxRPS = math.Max(maxRPS, tp.RPS)
	}
	if maxRPS > 0 {
		pt.Fairness = minRPS / maxRPS
	}
	for _, tp := range pt.Tenants {
		if tp.RPS < cfg.FairMin*maxRPS {
			pt.Starved = append(pt.Starved, tp.Name)
		}
	}
	return pt
}

// startHTTPServer exposes the kernels as a request service on a loopback
// listener: POST /run?client=N with an X-Tenant header runs one request
// and answers 200 (admitted) or 503 (shed — rejected or timed out, served
// serialized) with the outcome as JSON. With cfg.Metrics, the aomplib
// diagnostics handler is mounted on the same mux (/metrics and
// /debug/aomp/*), so a Prometheus scraper can watch the run mid-flight.
// The returned request func is what the sweep clients call.
func startHTTPServer(cfg Config, kernels []func()) (*http.Server, func(int, string) (outcome, error), error) {
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	type wire struct {
		LatNs    int64 `json:"lat_ns"`
		Queued   bool  `json:"queued"`
		Rejected bool  `json:"rejected"`
		TimedOut bool  `json:"timed_out"`
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) {
		var client int
		if _, err := fmt.Sscanf(r.URL.Query().Get("client"), "%d", &client); err != nil ||
			client < 0 || client >= len(kernels) {
			http.Error(w, "bad client index", http.StatusBadRequest)
			return
		}
		tenant := r.Header.Get("X-Tenant")
		if tenant == "" {
			http.Error(w, "missing X-Tenant", http.StatusBadRequest)
			return
		}
		o := serveOne(tenant, kernels[client])
		if o.rejected {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(wire{
			LatNs: int64(o.lat), Queued: o.queued,
			Rejected: o.rejected, TimedOut: o.timedOut,
		})
	})
	if cfg.Metrics {
		diag := aomplib.Handler()
		mux.Handle("/metrics", diag)
		mux.Handle("/debug/aomp/", diag)
		fmt.Fprintf(os.Stderr, "loadgen: diagnostics on http://%s/metrics\n", ln.Addr())
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)

	base := fmt.Sprintf("http://%s/run", ln.Addr())
	httpClient := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	request := func(client int, tenant string) (outcome, error) {
		req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("%s?client=%d", base, client), nil)
		if err != nil {
			return outcome{}, err
		}
		req.Header.Set("X-Tenant", tenant)
		start := time.Now()
		resp, err := httpClient.Do(req)
		if err != nil {
			return outcome{}, err
		}
		var w wire
		err = json.NewDecoder(resp.Body).Decode(&w)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return outcome{}, fmt.Errorf("decode response (status %d): %w", resp.StatusCode, err)
		}
		if (resp.StatusCode == http.StatusServiceUnavailable) != w.Rejected {
			return outcome{}, fmt.Errorf("status %d disagrees with rejected=%v", resp.StatusCode, w.Rejected)
		}
		// End-to-end latency, so queueing and transport are both in it.
		return outcome{
			lat: time.Since(start), queued: w.Queued,
			rejected: w.Rejected, timedOut: w.TimedOut,
		}, nil
	}
	return srv, request, nil
}
