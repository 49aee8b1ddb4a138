// Command loadgen load-tests the multi-tenant server mode: N tenants'
// closed-loop clients push PageRank / Monte Carlo requests — each one a
// parallel region — through the admission layer over the hot-team pool,
// sweeping offered load and reporting p50/p99 latency, throughput,
// rejection rate and cross-tenant fairness as JSON.
//
// The CI smoke (and a quick local look) is:
//
//	go run ./cmd/loadgen -tenants 4 -teams 2 -sweep 1,2 -duration 2s -check
//
// which fails (exit 1) if any tenant starves — throughput under -fairmin
// of the best tenant's — or, with -p99max set, if p99 exceeds the bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func parseSweep(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad sweep point %q: %w", f, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	def := DefaultConfig()
	tenants := flag.Int("tenants", def.Tenants, "concurrent tenants")
	teams := flag.Int("teams", def.MaxTeams, "admission lease slots (concurrent teams)")
	teamsize := flag.Int("teamsize", def.TeamSize, "workers per parallel region")
	kernel := flag.String("kernel", def.Kernel, "request kernel: pagerank, montecarlo or mix")
	policy := flag.String("policy", def.Policy, "backpressure policy: block, timeout or reject")
	timeout := flag.Duration("timeout", def.Timeout, "queue-wait bound for -policy timeout")
	quota := flag.Int("quota", 0, "per-tenant concurrent-lease cap (0 = none)")
	queue := flag.Int("queue", 0, "admission queue bound (0 = library default)")
	sweepStr := flag.String("sweep", "1,2,4", "closed-loop clients per tenant, comma-separated")
	duration := flag.Duration("duration", def.Duration, "wall time per sweep point")
	useHTTP := flag.Bool("http", false, "drive requests through a local HTTP server")
	metrics := flag.Bool("metrics", false, "serve the aomplib diagnostics (/metrics, /debug/aomp/*) during the run")
	addr := flag.String("addr", "", "listen address for -http/-metrics (default loopback ephemeral)")
	seed := flag.Int64("seed", def.Seed, "workload seed")
	out := flag.String("o", "", "write the JSON report here instead of stdout")
	check := flag.Bool("check", false, "exit 1 on starved tenants or a busted -p99max")
	fairmin := flag.Float64("fairmin", def.FairMin, "starvation threshold: min/max tenant throughput")
	p99max := flag.Duration("p99max", 0, "p99 latency bound for -check (0 = unchecked)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: unexpected argument %q (every setting is a flag, e.g. -sweep)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	sweep, err := parseSweep(*sweepStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	cfg := Config{
		Tenants: *tenants, MaxTeams: *teams, TeamSize: *teamsize,
		Kernel: *kernel, Policy: *policy, Timeout: *timeout,
		Quota: *quota, QueueBound: *queue,
		Sweep: sweep, Duration: *duration, HTTP: *useHTTP, Seed: *seed,
		Metrics: *metrics, Addr: *addr,
		FairMin: *fairmin, P99Max: *p99max,
	}

	rep, err := runSweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(2)
		}
	} else {
		os.Stdout.Write(enc)
	}

	for _, p := range rep.Points {
		fmt.Fprintf(os.Stderr,
			"loadgen: %2d clients/tenant  %8.1f req/s  p50 %7.2fms  p99 %7.2fms  reject %5.1f%%  fairness %.3f\n",
			p.ClientsPerTenant, p.ThroughputRPS, p.P50Ms, p.P99Ms, 100*p.RejectionRate, p.Fairness)
	}
	if *check {
		if err := rep.Check(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "loadgen: check passed — no starved tenants")
	}
}
