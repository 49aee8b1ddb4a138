package aomplib_test

import (
	"sync/atomic"
	"testing"

	"aomplib"
)

// The hot-team knobs are part of the public facade: toggling, pool
// sizing and stats must round-trip, and a woven program must produce
// identical results with hot teams on and off.
func TestFacadeHotTeamKnobs(t *testing.T) {
	defer aomplib.SetHotTeams(aomplib.SetHotTeams(true))
	if !aomplib.HotTeamsEnabled() {
		t.Fatal("hot teams not enabled after SetHotTeams(true)")
	}

	prog := aomplib.NewProgram("knobs")
	var sum atomic.Int64
	loop := prog.Class("K").ForProc("loop", func(lo, hi, step int) {
		var local int64
		for i := lo; i < hi; i += step {
			local += int64(i)
		}
		sum.Add(local)
	})
	run := prog.Class("K").Proc("run", func() { loop(0, 1000, 1) })
	prog.Use(aomplib.ParallelRegion("call(* K.run(..))").Threads(2))
	prog.Use(aomplib.ForShare("call(* K.loop(..))"))
	prog.MustWeave()

	const want = 999 * 1000 / 2
	defer aomplib.EnableMetrics(aomplib.EnableMetrics(true)) // PoolStats' leases are registry counts
	before := aomplib.PoolStats()
	for _, hot := range []bool{true, false, true} {
		aomplib.SetHotTeams(hot)
		sum.Store(0)
		run()
		if sum.Load() != want {
			t.Fatalf("hot=%v: sum = %d, want %d", hot, sum.Load(), want)
		}
	}
	after := aomplib.PoolStats()
	if after.Leases <= before.Leases {
		t.Fatalf("PoolStats leases did not advance: %d -> %d", before.Leases, after.Leases)
	}
	if after.MaxIdleWorkers <= 0 {
		t.Fatalf("MaxIdleWorkers = %d, want positive", after.MaxIdleWorkers)
	}

	prevSize := aomplib.SetPoolSize(16)
	if got := aomplib.SetPoolSize(prevSize); got != 16 {
		t.Fatalf("SetPoolSize did not return the previous bound: %d", got)
	}
}

// ParseSchedule turns a flag value (jgfbench -schedule) into the kind a
// loop is bound with; the facade must round-trip names and reject unknown
// ones, "runtime" included: no process-wide default exists to defer to.
func TestFacadeScheduleKnobs(t *testing.T) {
	k, err := aomplib.ParseSchedule("guided")
	if err != nil || k != aomplib.Guided {
		t.Fatalf("ParseSchedule(guided) = %v, %v", k, err)
	}
	for _, name := range []string{"nope", "runtime"} {
		if _, err := aomplib.ParseSchedule(name); err == nil {
			t.Fatalf("schedule name %q parsed", name)
		}
	}
}
