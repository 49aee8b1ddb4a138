package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// shortConfig keeps in-process sweeps fast enough for `go test ./...`.
func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.Sweep = []int{1, 2}
	cfg.Duration = 300 * time.Millisecond
	return cfg
}

func TestRunSweepDirectFairness(t *testing.T) {
	cfg := shortConfig()
	rep, err := runSweep(cfg)
	if err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	if len(rep.Points) != len(cfg.Sweep) {
		t.Fatalf("got %d points, want %d", len(rep.Points), len(cfg.Sweep))
	}
	for _, p := range rep.Points {
		if p.Requests == 0 {
			t.Fatalf("point %d completed no requests", p.ClientsPerTenant)
		}
		if len(p.Tenants) != cfg.Tenants {
			t.Fatalf("point %d has %d tenant rows, want %d", p.ClientsPerTenant, len(p.Tenants), cfg.Tenants)
		}
		if p.P99Ms < p.P50Ms {
			t.Fatalf("point %d: p99 %.3fms < p50 %.3fms", p.ClientsPerTenant, p.P99Ms, p.P50Ms)
		}
		if len(p.Starved) > 0 {
			t.Fatalf("point %d starved tenants %v (fairness %.3f)", p.ClientsPerTenant, p.Starved, p.Fairness)
		}
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check on a healthy report: %v", err)
	}
	if rep.Admission.Admitted == 0 {
		t.Fatal("admission snapshot recorded no admits")
	}
}

func TestRunSweepRejectShedsWithoutDeadlock(t *testing.T) {
	cfg := shortConfig()
	cfg.MaxTeams = 1
	cfg.Policy = "reject"
	cfg.Sweep = []int{4} // 16 clients over 1 slot: saturation
	done := make(chan struct{})
	var rep *Report
	var err error
	go func() {
		defer close(done)
		rep, err = runSweep(cfg)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("saturated reject sweep deadlocked")
	}
	if err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	p := rep.Points[0]
	if p.Rejected == 0 {
		t.Fatal("saturated reject sweep shed nothing")
	}
	if p.Degraded < p.Rejected {
		t.Fatalf("rejected requests must degrade, not vanish: rejected=%d degraded=%d", p.Rejected, p.Degraded)
	}
	if len(p.Starved) > 0 {
		t.Fatalf("degraded service still starved %v (fairness %.3f)", p.Starved, p.Fairness)
	}
}

func TestRunSweepHTTPMode(t *testing.T) {
	cfg := shortConfig()
	cfg.HTTP = true
	cfg.Kernel = "mix"
	cfg.Tenants = 2
	cfg.Sweep = []int{2}
	rep, err := runSweep(cfg)
	if err != nil {
		t.Fatalf("runSweep(http): %v", err)
	}
	if rep.Points[0].Requests == 0 {
		t.Fatal("HTTP sweep completed no requests")
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestReportCheckFlagsStarvation(t *testing.T) {
	rep := &Report{Config: Config{FairMin: 0.25}}
	rep.Points = []Point{{ClientsPerTenant: 2, Requests: 10, Fairness: 0.1, Starved: []string{"tenant-3"}}}
	err := rep.Check()
	if err == nil || !strings.Contains(err.Error(), "tenant-3") {
		t.Fatalf("starvation not flagged: %v", err)
	}
	rep.Config.P99Max = time.Millisecond
	rep.Points = []Point{{ClientsPerTenant: 1, Requests: 10, Fairness: 1, P99Ms: 50}}
	err = rep.Check()
	if err == nil || !strings.Contains(err.Error(), "p99") {
		t.Fatalf("p99 bound not flagged: %v", err)
	}
}

func TestParseSweepAndPolicy(t *testing.T) {
	if got, err := parseSweep("1, 2,8"); err != nil || len(got) != 3 || got[2] != 8 {
		t.Fatalf("parseSweep: %v %v", got, err)
	}
	if _, err := parseSweep("1,x"); err == nil {
		t.Fatal("garbage sweep accepted")
	}
	if _, err := parsePolicy("drop"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := runSweep(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := shortConfig()
	cfg.Kernel = "fortran"
	if _, err := runSweep(cfg); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestPositionalArgumentRejected: `loadgen -sweep=1 -duration=50ms 4 -check
// -p99max=1ns` must exit 2 with usage. Without the guard flag.Parse stops at
// "4", the sweep runs with -check off and exits 0: a CI gate written that
// way would pass vacuously. The test binary re-executes itself as the
// command.
func TestPositionalArgumentRejected(t *testing.T) {
	if os.Getenv("LOADGEN_AS_MAIN") == "1" {
		os.Args = []string{"loadgen", "-sweep=1", "-duration=50ms", "4", "-check", "-p99max=1ns"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPositionalArgumentRejected$")
	cmd.Env = append(os.Environ(), "LOADGEN_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("loadgen -sweep=1 -duration=50ms 4 -check -p99max=1ns: %v, want exit status 2; output:\n%.400s", err, out)
	}
	if !strings.Contains(string(out), `unexpected argument "4"`) || !strings.Contains(string(out), "-sweep") {
		t.Fatalf("no usage in the output:\n%.400s", out)
	}
}

// TestUnhonourableSettingsRejected: a setting the sweep cannot honour must
// exit 2 before any sweep point runs — not run a zero-request sweep
// (-duration=-1s), die in JSON encoding after the whole sweep (-fairmin
// NaN), accept a ratio no tenant can reach (-fairmin 2), read a negative
// bound as "none" or "default", or pass -check against a negative -p99max.
// The test binary re-executes itself as the command, one flag at a time.
func TestUnhonourableSettingsRejected(t *testing.T) {
	if arg := os.Getenv("LOADGEN_BAD_FLAG"); arg != "" {
		os.Args = []string{"loadgen", "-sweep=1", "-duration=50ms", arg, "-check"}
		main()
		return
	}
	for _, arg := range []string{"-duration=-1s", "-duration=0s", "-fairmin=NaN", "-fairmin=2",
		"-fairmin=-0.5", "-quota=-1", "-queue=-1", "-timeout=-1ms", "-p99max=-1s"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnhonourableSettingsRejected$")
		cmd.Env = append(os.Environ(), "LOADGEN_BAD_FLAG="+arg)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("loadgen %s: %v, want exit status 2; output:\n%.400s", arg, err, out)
		}
		flagName := strings.SplitN(arg[1:], "=", 2)[0]
		if !strings.Contains(string(out), "-"+flagName) || strings.Contains(string(out), "req/s") {
			t.Fatalf("loadgen %s: want an error naming -%s before any sweep point; output:\n%.400s", arg, flagName, out)
		}
	}
}
