package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	_ "unsafe" // go:linkname, for fixedRegionWidth

	"aomplib"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/sched"
)

// fixedRegionWidth is internal/core's fixedWidth: while set, regions woven
// run every entry at their requested width instead of learning to run a
// short region on one worker.
//
//go:linkname fixedRegionWidth aomplib/internal/core.fixedWidth
var fixedRegionWidth bool

// loopShares reads the registry's cumulative loop shares per schedule name.
func loopShares() map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range aomplib.ReadMetrics().LoopShares {
		out[s.Schedule] = s.Shares
	}
	return out
}

// TestScheduleReachesKernels: the schedule suite() is given reaches the
// construct of every kernel that takes one — the woven Aomp rows of Crypt,
// LUFact, Series and SOR, and the Parallel rows of Series and SOR. Every
// run validates; at width ≥ 2 a concrete kind's run records loop shares
// under that kind and no other, so a kernel that ignored Params.Schedule
// (and ran its zero value, staticBlock) fails for every other kind.
func TestScheduleReachesKernels(t *testing.T) {
	prevWidth := fixedRegionWidth
	fixedRegionWidth = true
	defer func() { fixedRegionWidth = prevWidth }()
	defer aomplib.EnableMetrics(aomplib.EnableMetrics(true))

	kinds := []sched.Kind{sched.StaticBlock, sched.StaticCyclic, sched.Dynamic, sched.Guided, sched.Adaptive}
	for _, k := range kinds {
		for _, b := range suite("test", k) {
			rows := map[string]func(int) harness.Instance{}
			switch b.name {
			case "Crypt", "LUFact":
				rows["Aomp"] = b.aomp
			case "Series", "SOR":
				rows["Aomp"], rows["Parallel"] = b.aomp, b.par
			default:
				continue
			}
			for row, mk := range rows {
				for _, width := range []int{1, 2, 3} {
					in := mk(width)
					in.Setup()
					before := loopShares()
					in.Kernel()
					after := loopShares()
					if err := in.Validate(); err != nil {
						t.Fatalf("%s/%s %v width %d: %v", b.name, row, k, width, err)
					}
					if width < 2 || k == sched.Adaptive {
						continue
					}
					if after[k.String()] == before[k.String()] {
						t.Errorf("%s/%s %v width %d: no loop share ran under %v", b.name, row, k, width, k)
					}
					for name, n := range after {
						if ran := n - before[name]; name != k.String() && ran != 0 {
							t.Errorf("%s/%s %v width %d: %d loop shares ran under %s", b.name, row, k, width, ran, name)
						}
					}
				}
			}
		}
	}
}

// TestPhaseBarriersPerSchedule: the woven SOR and LUFact kernels end each
// phase at their own barrier alone, whatever their loop's schedule. At
// width 2 a dispensing kind's run passes exactly as many barriers as a
// staticBlock run, so its @For adds no implicit barrier of its own.
func TestPhaseBarriersPerSchedule(t *testing.T) {
	prevWidth := fixedRegionWidth
	fixedRegionWidth = true
	defer func() { fixedRegionWidth = prevWidth }()
	defer aomplib.EnableMetrics(aomplib.EnableMetrics(true))

	waits := func(name string, k sched.Kind) uint64 {
		for _, b := range suite("test", k) {
			if b.name != name {
				continue
			}
			in := b.aomp(2)
			in.Setup()
			before := aomplib.ReadMetrics().BarrierWait.Count
			in.Kernel()
			n := aomplib.ReadMetrics().BarrierWait.Count - before
			if err := in.Validate(); err != nil {
				t.Fatalf("%s %v: %v", name, k, err)
			}
			return n
		}
		t.Fatalf("no %s in the suite", name)
		return 0
	}
	for _, name := range []string{"SOR", "LUFact"} {
		want := waits(name, sched.StaticBlock)
		if want == 0 {
			t.Fatalf("%s staticBlock passed no barrier", name)
		}
		for _, k := range []sched.Kind{sched.Dynamic, sched.Guided} {
			if got := waits(name, k); got != want {
				t.Errorf("%s %v passed %d barriers, staticBlock %d", name, k, got, want)
			}
		}
	}
}

// TestScheduleFlag: -schedule names the kernels' loop schedule. "runtime"
// and "steal" (deleted kinds) and "caseSpecific" (it needs a ScheduleFunc
// a flag cannot carry) exit 2 with the valid list, and the
// -json report records the kind the kernels ran.
func TestScheduleFlag(t *testing.T) {
	if args := os.Getenv("JGFBENCH_SCHEDULE_ARGS"); args != "" {
		os.Args = append([]string{"jgfbench", "-size=test", "-threads=1", "-rounds=1", "-only=series"}, strings.Fields(args)...)
		main()
		return
	}
	run := func(args string) ([]byte, error) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestScheduleFlag$")
		cmd.Env = append(os.Environ(), "JGFBENCH_SCHEDULE_ARGS="+args)
		return cmd.CombinedOutput()
	}
	for _, name := range []string{"runtime", "steal", "caseSpecific"} {
		out, err := run("-schedule=" + name)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("jgfbench -schedule=%s: %v, want exit status 2; output:\n%.400s", name, err, out)
		}
		const valid = "valid: staticBlock, staticCyclic, dynamic, guided, adaptive)"
		if !strings.Contains(string(out), valid) {
			t.Fatalf("jgfbench -schedule=%s: output lacks %q:\n%.400s", name, valid, out)
		}
	}
	path := filepath.Join(t.TempDir(), "out.json")
	if out, err := run("-schedule=dynamic -json=" + path); err != nil {
		t.Fatalf("jgfbench -schedule=dynamic: %v; output:\n%.400s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schedule string `json:"schedule"`
	}
	if err := json.Unmarshal(data, &rep); err != nil || rep.Schedule != "dynamic" {
		t.Fatalf("-json schedule = %q (%v), want \"dynamic\"", rep.Schedule, err)
	}
}
