package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// sampleReport builds a jgfbench-shaped report with SOR results at 1 and
// 4 threads; the 4-thread Aomp mean is the one the gate must pick — the
// hand-threaded JGF-MT rows do not run under -schedule and are decoys.
func sampleReport(meanAt4 string) string {
	return `{
  "schema": 3,
  "size": "test",
  "schedule": "steal",
  "asym": "0:300",
  "sched_stats": {"steal_attempts": 100, "steals": 40, "steal_probes": 250, "barrier_wait_ns": 9000},
  "results": [
    {"benchmark": "SOR", "version": "Seq", "threads": 1, "mean_seconds": 0.5, "valid": true},
    {"benchmark": "SOR", "version": "JGF-MT", "threads": 4, "mean_seconds": 0.9, "valid": true},
    {"benchmark": "SOR", "version": "Aomp", "threads": 1, "mean_seconds": 0.7, "valid": true},
    {"benchmark": "SOR", "version": "Aomp", "threads": 4, "mean_seconds": ` + meanAt4 + `, "valid": true},
    {"benchmark": "LUFact", "version": "Aomp", "threads": 4, "mean_seconds": 0.2, "valid": true}
  ]
}`
}

func writeReport(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParallelMeanPicksWidestScheduledResult(t *testing.T) {
	rep, err := load(writeReport(t, "r.json", sampleReport("0.25")))
	if err != nil {
		t.Fatal(err)
	}
	secs, err := parallelMean("r.json", rep, "SOR", "Aomp")
	if err != nil {
		t.Fatal(err)
	}
	if secs != 0.25 {
		t.Fatalf("picked %v, want the 4-thread Aomp mean 0.25 (not the JGF-MT decoy)", secs)
	}
	if secs, err = parallelMean("r.json", rep, "LUFact", "Aomp"); err != nil || secs != 0.2 {
		t.Fatalf("LUFact = %v, %v, want 0.2", secs, err)
	}
}

func TestParallelMeanRefusesUnusableReports(t *testing.T) {
	cases := []struct {
		name, body, bench, wantErr string
	}{
		{"absent benchmark", sampleReport("0.25"), "Series", "no Aomp result"},
		{"invalid result", strings.ReplaceAll(sampleReport("0.25"), `0.25, "valid": true`, `0.25, "valid": false`), "SOR", "failed validation"},
		{"zero time", sampleReport("0"), "SOR", "not a positive time"},
	}
	for _, c := range cases {
		rep, err := load(writeReport(t, "r.json", c.body))
		if err != nil {
			t.Fatalf("%s: load: %v", c.name, err)
		}
		if _, err := parallelMean("r.json", rep, c.bench, "Aomp"); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestLoadRefusesGarbage(t *testing.T) {
	if _, err := load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file loaded")
	}
	if _, err := load(writeReport(t, "bad.json", "not json")); err == nil || !strings.Contains(err.Error(), "parsing report") {
		t.Errorf("garbage JSON: err = %v", err)
	}
	if _, err := load(writeReport(t, "empty.json", `{"schema":3,"results":[]}`)); err == nil || !strings.Contains(err.Error(), "no results") {
		t.Errorf("empty results: err = %v", err)
	}
}

// TestRefusesMismatchedReports: two reports measured under a different
// -asym or -size compare unlike with like; the gate must exit 2 naming
// both values, not print a ratio "under the same asymmetry". The test
// binary re-executes itself as the command.
func TestRefusesMismatchedReports(t *testing.T) {
	if args := os.Getenv("ASYMCHECK_ARGS"); args != "" {
		os.Args = append([]string{"asymcheck"}, strings.Split(args, "\n")...)
		main()
		return
	}
	base := writeReport(t, "base.json", sampleReport("0.25"))
	for _, c := range []struct{ field, was, now string }{
		{"asym", "0:300", "1:300"},
		{"size", "test", "A"},
	} {
		t.Run(c.field, func(t *testing.T) {
			from := fmt.Sprintf("%q: %q", c.field, c.was)
			cand := writeReport(t, "cand.json", strings.Replace(sampleReport("0.25"), from, fmt.Sprintf("%q: %q", c.field, c.now), 1))
			cmd := exec.Command(os.Args[0], "-test.run=^TestRefusesMismatchedReports$")
			cmd.Env = append(os.Environ(), "ASYMCHECK_ARGS="+base+"\n"+cand)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%s mismatch: %v, want exit status 2; output:\n%.400s", c.field, err, out)
			}
			for _, want := range []string{strconv.Quote(c.was), strconv.Quote(c.now)} {
				if !strings.Contains(string(out), want) {
					t.Fatalf("%s mismatch: output lacks %s:\n%.400s", c.field, want, out)
				}
			}
		})
	}
}
