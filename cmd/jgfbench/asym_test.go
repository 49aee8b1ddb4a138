package main

import (
	"testing"

	"aomplib/internal/core"
	"aomplib/internal/jgf/sor"
	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// TestAsymThrottle pins the -asym aspect: deployed on a woven kernel it
// advises the for methods only and leaves the result valid; inside a team
// it charges each worker its configured units per iteration of the
// sub-range it is dealt; unconfigured workers, empty ranges and an empty
// spec cost nothing.
func TestAsymThrottle(t *testing.T) {
	const n = 40 // spins of worker 1
	throttle := func() *asymThrottle {
		th, err := parseAsym("1:40", 2)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}

	inst := throttle().deploy(sor.NewAomp(sor.SizeTest, 2))
	inst.Setup()
	inst.Kernel()
	if err := inst.Validate(); err != nil {
		t.Fatalf("throttled SOR: %v", err)
	}
	var advised []string
	for _, wm := range inst.(wovenKernel).Program().Report() {
		for _, d := range wm.Details {
			if d.Aspect == "AsymThrottle" {
				advised = append(advised, wm.FQN)
			}
		}
	}
	if len(advised) != 2 || advised[0] != "SOR.relaxBlack" || advised[1] != "SOR.relaxRed" {
		t.Fatalf("throttle advises %v, want [SOR.relaxBlack SOR.relaxRed]", advised)
	}

	// A static block loop of 100 iterations in a bare 2-worker region:
	// worker 1's share is 50 iterations, worker 0 is unconfigured.
	th := throttle()
	p := weaver.NewProgram("asym")
	loop := p.Class("A").ForProc("loop", func(lo, hi, step int) {})
	p.Use(core.ForShare("call(* A.loop(..))"), th.aspect())
	p.MustWeave()
	rt.Region(2, func(*rt.Worker) { loop(0, 100, 1) })
	if got, want := th.charged[1].Load(), uint64(n*50); got != want {
		t.Fatalf("worker 1 charged %d units, want %d", got, want)
	}
	if got := th.charged[0].Load(); got != 0 {
		t.Fatalf("unconfigured worker 0 charged %d units", got)
	}

	// No-op cases: an unconfigured worker, a worker beyond the table, zero
	// iterations.
	before := th.sink.Load()
	th.charge(0, 100)
	th.charge(2, 100)
	th.charge(1, 0)
	if th.sink.Load() != before || th.charged[1].Load() != n*50 {
		t.Fatal("a no-op charge spun")
	}

	th, err := parseAsym(" ", 2)
	if th != nil || err != nil {
		t.Fatalf(`parseAsym(" ") = %v, %v; want no throttle`, th, err)
	}
	plain := sor.NewAomp(sor.SizeTest, 2)
	if th.deploy(plain) != plain {
		t.Fatal("an empty -asym wrapped the kernel")
	}
}
