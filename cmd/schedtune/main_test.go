package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// synthetic builds a minimal Chrome trace: enc encounters of a loop under
// kind on nw workers, where worker 0's share takes skew times the others'.
func synthetic(kind string, nw, enc int, skew float64) string {
	var b strings.Builder
	b.WriteString(`{"traceEvents":[`)
	ts := 0.0
	for e := 0; e < enc; e++ {
		for w := 0; w < nw; w++ {
			dur := 100.0
			if w == 0 {
				dur *= skew
			}
			if e > 0 || w > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"name":"for (%s)","cat":"work","ph":"X","pid":1,"tid":%d,"ts":%g,"dur":%g}`,
				kind, w+2, ts, dur)
		}
		ts += 100*skew + 10 // next encounter starts after the slowest share
	}
	// Noise the parser must skip: a barrier slice and an instant.
	b.WriteString(`,{"name":"barrier","cat":"barrier","ph":"X","pid":1,"tid":2,"ts":0,"dur":5}`)
	b.WriteString(`,{"name":"steal","cat":"steal","ph":"i","pid":1,"tid":2,"ts":1}`)
	b.WriteString(`]}`)
	return b.String()
}

func analyzeString(t *testing.T, trace string) []loopReport {
	t.Helper()
	reports, err := analyze(strings.NewReader(trace), 1.25, 1.08)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return reports
}

func TestAnalyzeReconstructsEncounters(t *testing.T) {
	reports := analyzeString(t, synthetic("steal", 4, 5, 4.0))
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1: %+v", len(reports), reports)
	}
	r := reports[0]
	if r.Kind != "steal" || r.Encounters != 5 || r.Workers != 4 {
		t.Fatalf("report = %+v, want kind=steal encounters=5 workers=4", r)
	}
	// durs 400,100,100,100 → mean 175 → imb 400/175 ≈ 2.286 every encounter.
	if r.MeanImb < 2.2 || r.MeanImb > 2.4 || r.WorstImb < 2.2 {
		t.Fatalf("imbalance = mean %.3f worst %.3f, want ≈2.286", r.MeanImb, r.WorstImb)
	}
}

// TestAnalyzeSerializedSlices pins the alignment rule on a trace from a
// time-shared CPU: the four workers' slices of each encounter run strictly
// one after another (no wall-time overlap), which any overlap-based
// clustering would shred into width-1 encounters. Per-worker sequence
// alignment must still reconstruct full-width encounters.
func TestAnalyzeSerializedSlices(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"traceEvents":[`)
	ts := 0.0
	first := true
	for e := 0; e < 3; e++ {
		for w := 0; w < 4; w++ {
			dur := 100.0
			if w == 0 {
				dur = 400.0
			}
			if !first {
				b.WriteString(",")
			}
			first = false
			fmt.Fprintf(&b, `{"name":"for (steal)","cat":"work","ph":"X","pid":1,"tid":%d,"ts":%g,"dur":%g}`,
				w+2, ts, dur)
			ts += dur + 1 // next slice starts after this one ends
		}
	}
	b.WriteString(`]}`)
	reports := analyzeString(t, b.String())
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1: %+v", len(reports), reports)
	}
	r := reports[0]
	if r.Encounters != 3 || r.Workers != 4 {
		t.Fatalf("report = %+v, want encounters=3 workers=4", r)
	}
	if r.MeanImb < 2.2 || r.MeanImb > 2.4 {
		t.Fatalf("mean imb = %.3f, want ≈2.286", r.MeanImb)
	}
}

// TestAdvicePolicy pins the recommendation table to the runtime's
// adaptation policy: skewed → weighted steal (or finer chunks when
// already balancing), balanced → coarsen, hysteresis band → keep.
func TestAdvicePolicy(t *testing.T) {
	cases := []struct {
		kind string
		skew float64
		want string
	}{
		{"steal", 4.0, "weightedSteal"},
		{"staticBlock", 4.0, "weightedSteal"},
		{"dynamic", 4.0, "halve the chunk"},
		{"weightedSteal", 4.0, "halve the chunk"},
		{"staticBlock", 1.0, "balanced: keep"},
		{"guided", 1.0, "coarsen chunk"},
		{"steal", 1.15, "hysteresis"},
	}
	for _, c := range cases {
		reports := analyzeString(t, synthetic(c.kind, 4, 3, c.skew))
		if len(reports) != 1 {
			t.Fatalf("%s skew %.2f: %d reports", c.kind, c.skew, len(reports))
		}
		if !strings.Contains(reports[0].Advice, c.want) {
			t.Errorf("%s skew %.2f: advice %q, want it to mention %q",
				c.kind, c.skew, reports[0].Advice, c.want)
		}
	}
}

// TestAnalyzeSkipsUnmeasurableGroups pins the single-worker rule: a
// width-1 trace measures no imbalance and must say so instead of
// recommending on a fabricated 1.0.
func TestAnalyzeSkipsUnmeasurableGroups(t *testing.T) {
	reports := analyzeString(t, synthetic("guided", 1, 4, 1.0))
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	r := reports[0]
	if r.MeanImb != 0 || !strings.Contains(r.Advice, "no multi-worker") {
		t.Fatalf("width-1 report = %+v, want zero imbalance and the no-measurement advice", r)
	}
}

func TestAnalyzeRejectsGarbage(t *testing.T) {
	if _, err := analyze(strings.NewReader("not json"), 1.25, 1.08); err == nil {
		t.Fatal("garbage input parsed")
	}
	reports := analyzeString(t, `{"traceEvents":[]}`)
	if len(reports) != 0 {
		t.Fatalf("empty trace produced reports: %+v", reports)
	}
}

func TestKindOf(t *testing.T) {
	if k, ok := kindOf("for (weightedSteal)"); !ok || k != "weightedSteal" {
		t.Fatalf("kindOf = %q, %v", k, ok)
	}
	for _, bad := range []string{"task 7", "for ()", "for (x", "barrier"} {
		if _, ok := kindOf(bad); ok {
			t.Errorf("kindOf(%q) accepted", bad)
		}
	}
}

// TestThresholdsThatSwitchAdviceOffRejected: a NaN or infinite threshold,
// or a band with -imb-low >= -imb-high, must exit 2 with usage instead of
// reporting a 3x-imbalanced group as "within hysteresis band: keep". The
// test binary re-executes itself as the command.
func TestThresholdsThatSwitchAdviceOffRejected(t *testing.T) {
	if args := os.Getenv("SCHEDTUNE_AS_MAIN"); args != "" {
		os.Args = append([]string{"schedtune"}, strings.Fields(args)...)
		main()
		return
	}
	trace := filepath.Join(t.TempDir(), "skewed.json")
	if err := os.WriteFile(trace, []byte(synthetic("steal", 4, 3, 3.0)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, flags := range []string{"-imb-high NaN", "-imb-low NaN", "-imb-high Inf",
		"-imb-low -Inf", "-imb-low 1.5 -imb-high 1.2", "-imb-low 1.25 -imb-high 1.25"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestThresholdsThatSwitchAdviceOffRejected$")
		cmd.Env = append(os.Environ(), "SCHEDTUNE_AS_MAIN="+flags+" "+trace)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("schedtune %s: %v, want exit status 2; output:\n%.400s", flags, err, out)
			continue
		}
		if !strings.Contains(string(out), "usage: schedtune") {
			t.Errorf("schedtune %s: no usage in the output:\n%.400s", flags, out)
		}
	}
}
