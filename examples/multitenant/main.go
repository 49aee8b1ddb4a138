// Multi-tenant server mode: arbitrating the hot-team pool between
// competing request streams.
//
// A server embedding AOmpLib has many request goroutines, each wanting a
// small parallel region; left alone they would each cold-spawn or fight
// over the pool. This example turns on admission control — a fair FIFO
// lease queue over the hot-team pool — binds each simulated request to a
// tenant, caps one noisy tenant with a quota, and prints the per-tenant
// outcome counters: every tenant makes progress, the noisy one cannot
// monopolize, and overload degrades to serialized execution instead of
// failing or queueing without bound.
//
// Run with:
//
//	go run ./examples/multitenant
package main

import (
	"fmt"
	"sync"
	"time"

	"aomplib"
)

// handle is one "request": a small parallel region doing fake work.
func handle(tenant string) {
	tok := aomplib.EnterTenant(tenant)
	defer tok.Exit()
	prog := aomplib.NewProgram("serve")
	n := 0
	work := prog.Class("Req").Proc("work", func() {
		time.Sleep(200 * time.Microsecond) // stand-in for kernel work
		n++
	})
	prog.Use(aomplib.ParallelRegion("call(* Req.work(..))").Threads(2))
	prog.MustWeave()
	work()
}

func main() {
	// Two concurrent teams, FIFO queue with a 2ms wait bound; "free" may
	// hold at most one of them at a time.
	aomplib.SetAdmissionControl(true)
	defer aomplib.SetAdmissionControl(false)
	aomplib.SetAdmitMaxTeams(2)
	aomplib.SetAdmitPolicy(aomplib.AdmitTimeout, 2*time.Millisecond)
	aomplib.SetTenantQuota("free", 1)

	var wg sync.WaitGroup
	for _, tenant := range []string{"enterprise", "pro", "free", "free", "free"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				handle(tenant)
			}
		}(tenant)
	}
	wg.Wait()

	st := aomplib.AdmissionStats()
	fmt.Printf("policy=%s slots=%d  admitted=%d queued=%d rejected=%d (timeouts=%d)\n",
		st.Policy, st.MaxTeams, st.Admitted, st.Queued, st.Rejected, st.TimedOut)
	for _, ts := range st.Tenants {
		if ts.Admitted+ts.Rejected == 0 {
			continue
		}
		fmt.Printf("  %-10s admitted=%4d rejected=%4d maxWait=%v\n",
			ts.Name, ts.Admitted, ts.Rejected, time.Duration(ts.MaxWaitNs))
	}
}
