package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// admissionTestSetup enables admission with a clean configuration and
// registers cleanup restoring the defaults. Counters are cumulative and
// process-global, so tests assert deltas, not absolutes.
func admissionTestSetup(t *testing.T, maxTeams int, policy AdmitPolicy, timeout time.Duration) {
	t.Helper()
	prevHot := SetHotTeams(true)
	prevOn := SetAdmissionControl(true)
	prevP, prevT := SetAdmitPolicy(policy, timeout)
	prevMax := SetAdmitMaxTeams(maxTeams)
	prevQB := SetAdmitQueueBound(0)
	t.Cleanup(func() {
		SetAdmitQueueBound(prevQB)
		SetAdmitMaxTeams(prevMax)
		SetAdmitPolicy(prevP, prevT)
		SetAdmissionControl(prevOn)
		SetHotTeams(prevHot)
	})
}

// occupyRegion enters a 2-worker region on its own goroutine whose master
// blocks until release is closed; the returned channel closes once the
// region is running (slot held). done closes when the region has fully
// exited.
func occupyRegion(t *testing.T, tenant string, release <-chan struct{}) (started, done chan struct{}) {
	t.Helper()
	started = make(chan struct{})
	done = make(chan struct{})
	go func() {
		defer close(done)
		tok := EnterTenant(tenant)
		defer tok.Exit()
		Region(2, func(w *Worker) {
			if w.ID == 0 {
				close(started)
				<-release
			}
		})
	}()
	return started, done
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionFastPathGrantAndToken(t *testing.T) {
	admissionTestSetup(t, 8, AdmitBlock, 0)
	before := ReadAdmissionStats()

	tok := EnterTenant("fastpath")
	ran := 0
	Region(2, func(w *Worker) {
		if w.ID == 0 {
			ran = NumThreads()
		}
	})
	tok.Exit()

	if ran != 2 {
		t.Fatalf("admitted region ran with %d threads, want 2", ran)
	}
	if got := tok.Admitted(); got != 1 {
		t.Fatalf("token Admitted = %d, want 1", got)
	}
	if tok.Queued() != 0 || tok.Rejected() != 0 || tok.Degraded() != 0 {
		t.Fatalf("unexpected token outcomes: queued=%d rejected=%d degraded=%d",
			tok.Queued(), tok.Rejected(), tok.Degraded())
	}
	after := ReadAdmissionStats()
	if after.Admitted-before.Admitted < 1 || after.FastAdmits-before.FastAdmits < 1 {
		t.Fatalf("stats did not record the fast admit: %+v vs %+v", after, before)
	}
	if after.Held != 0 {
		t.Fatalf("slot leaked: Held = %d after region exit", after.Held)
	}
	found := false
	for _, ts := range after.Tenants {
		if ts.Name == "fastpath" {
			found = true
			if ts.Admitted < 1 || ts.Held != 0 {
				t.Fatalf("tenant stats wrong: %+v", ts)
			}
		}
	}
	if !found {
		t.Fatalf("tenant fastpath missing from stats: %+v", after.Tenants)
	}
}

func TestAdmissionFIFOOrder(t *testing.T) {
	admissionTestSetup(t, 1, AdmitBlock, 0)

	relA := make(chan struct{})
	startedA, doneA := occupyRegion(t, "fifo-a", relA)
	<-startedA

	// Enqueue B, then C, strictly in order.
	var order []string
	var orderMu sync.Mutex
	enqueue := func(name string, depth int) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			tok := EnterTenant(name)
			defer tok.Exit()
			Region(2, func(w *Worker) {
				if w.ID == 0 {
					orderMu.Lock()
					order = append(order, name)
					orderMu.Unlock()
				}
			})
		}()
		waitCond(t, "queue depth "+fmt.Sprint(depth), func() bool {
			return ReadAdmissionStats().QueueDepth >= depth
		})
		return done
	}
	doneB := enqueue("fifo-b", 1)
	doneC := enqueue("fifo-c", 2)

	close(relA)
	<-doneA
	<-doneB
	<-doneC

	orderMu.Lock()
	defer orderMu.Unlock()
	if len(order) != 2 || order[0] != "fifo-b" || order[1] != "fifo-c" {
		t.Fatalf("FIFO violated: grant order %v, want [fifo-b fifo-c]", order)
	}
}

func TestAdmissionQuotaSkipsOffenderNotOthers(t *testing.T) {
	admissionTestSetup(t, 2, AdmitBlock, 0)
	prevQuota := SetTenantQuota("quota-a", 1)
	defer SetTenantQuota("quota-a", prevQuota)

	relA := make(chan struct{})
	startedA, doneA := occupyRegion(t, "quota-a", relA)
	<-startedA

	// A second quota-a region must queue (over quota) even though a global
	// slot is free.
	relA2 := make(chan struct{})
	startedA2, doneA2 := occupyRegion(t, "quota-a", relA2)
	waitCond(t, "a2 queued", func() bool { return ReadAdmissionStats().QueueDepth >= 1 })
	select {
	case <-startedA2:
		t.Fatal("second quota-a region was granted beyond the tenant quota")
	default:
	}

	// A different tenant must be granted immediately — the quota-blocked
	// waiter ahead of it in the queue must not block it.
	relB := make(chan struct{})
	startedB, doneB := occupyRegion(t, "quota-b", relB)
	select {
	case <-startedB:
	case <-time.After(5 * time.Second):
		t.Fatal("tenant quota-b starved behind a quota-blocked waiter")
	}

	// Releasing A's first region frees its quota; A2 must now be granted.
	close(relA)
	<-doneA
	select {
	case <-startedA2:
	case <-time.After(5 * time.Second):
		t.Fatal("second quota-a region never granted after quota freed")
	}
	close(relA2)
	close(relB)
	<-doneA2
	<-doneB
}

func TestAdmissionRejectDegradesServesSerialized(t *testing.T) {
	admissionTestSetup(t, 1, AdmitReject, 0)

	rel := make(chan struct{})
	started, done := occupyRegion(t, "rej-hold", rel)
	<-started

	tok := EnterTenant("rej-shed")
	width := 0
	Region(4, func(w *Worker) {
		if w.ID == 0 {
			width = NumThreads()
		}
	})
	tok.Exit()

	if width != 1 {
		t.Fatalf("rejected region ran with %d threads, want serialized 1", width)
	}
	if tok.Rejected() != 1 || tok.Degraded() != 1 {
		t.Fatalf("token outcomes: rejected=%d degraded=%d, want 1/1", tok.Rejected(), tok.Degraded())
	}
	close(rel)
	<-done
}

func TestAdmissionTimeoutDegrades(t *testing.T) {
	admissionTestSetup(t, 1, AdmitTimeout, 5*time.Millisecond)

	rel := make(chan struct{})
	started, done := occupyRegion(t, "to-hold", rel)
	<-started

	tok := EnterTenant("to-wait")
	width := 0
	Region(2, func(w *Worker) {
		if w.ID == 0 {
			width = NumThreads()
		}
	})
	tok.Exit()
	if width != 1 {
		t.Fatalf("timed-out region ran with %d threads, want serialized 1", width)
	}
	if tok.TimedOut() != 1 || tok.Degraded() != 1 {
		t.Fatalf("token outcomes: timedOut=%d degraded=%d, want 1/1", tok.TimedOut(), tok.Degraded())
	}
	if st := ReadAdmissionStats(); st.QueueDepth != 0 {
		t.Fatalf("timed-out waiter left in queue: depth %d", st.QueueDepth)
	}
	close(rel)
	<-done
}

func TestAdmissionQueueBoundOverflowDegrades(t *testing.T) {
	admissionTestSetup(t, 1, AdmitBlock, 0)
	SetAdmitQueueBound(1)

	rel := make(chan struct{})
	started, done := occupyRegion(t, "qb-hold", rel)
	<-started

	relW := make(chan struct{})
	_, doneW := occupyRegion(t, "qb-wait", relW)
	waitCond(t, "one waiter queued", func() bool { return ReadAdmissionStats().QueueDepth >= 1 })

	// The queue is at its bound: the next entry must degrade, not block —
	// a bounded queue rejects rather than deadlocks at saturation.
	tok := EnterTenant("qb-overflow")
	width := 0
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		Region(2, func(w *Worker) {
			if w.ID == 0 {
				width = NumThreads()
			}
		})
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("overflow entry blocked instead of degrading")
	}
	tok.Exit()
	if width != 1 {
		t.Fatalf("overflow region ran with %d threads, want serialized 1", width)
	}
	close(rel)
	close(relW)
	<-done
	<-doneW
}

func TestAdmissionNestedRegionsBypassQueue(t *testing.T) {
	admissionTestSetup(t, 1, AdmitBlock, 0)

	// The single slot is held by this region; its nested region must run
	// without re-entering admission (which would self-deadlock).
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		Region(2, func(w *Worker) {
			if w.ID == 0 {
				Region(2, func(inner *Worker) {})
			}
		})
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("nested region deadlocked against its own admission slot")
	}
}

func TestAdmissionDisableReleasesWaiters(t *testing.T) {
	admissionTestSetup(t, 1, AdmitBlock, 0)

	rel := make(chan struct{})
	started, done := occupyRegion(t, "dis-hold", rel)
	<-started
	relW := make(chan struct{})
	startedW, doneW := occupyRegion(t, "dis-wait", relW)
	waitCond(t, "waiter queued", func() bool { return ReadAdmissionStats().QueueDepth >= 1 })

	SetAdmissionControl(false)
	select {
	case <-startedW:
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter not released by SetAdmissionControl(false)")
	}
	close(relW)
	close(rel)
	<-done
	<-doneW
	if st := ReadAdmissionStats(); st.Held != 0 || st.QueueDepth != 0 {
		t.Fatalf("controller not drained after disable: held=%d depth=%d", st.Held, st.QueueDepth)
	}
}

func TestAdmissionPanicReleasesSlot(t *testing.T) {
	admissionTestSetup(t, 1, AdmitBlock, 0)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("worker panic not re-raised")
			}
		}()
		Region(2, func(w *Worker) {
			if w.ID == 1 {
				panic("boom")
			}
		})
	}()
	// The slot must have been released despite the panic: another region
	// must be admitted without queueing.
	if st := ReadAdmissionStats(); st.Held != 0 {
		t.Fatalf("panicked region leaked its slot: held=%d", st.Held)
	}
	Region(2, func(w *Worker) {})
}

// TestHotTeamAdmissionStressOversubscribed is the multi-tenant server
// shape under -race: many request goroutines (≫ pool and admission
// capacity) entering small nested regions through every policy while pool
// size, quotas and panic retirement churn underneath. Completion is the
// assertion — no deadlock, no lost slot — plus zero held slots at the end.
// The HotTeam name keeps it inside the CI pool-stress step's -run pattern.
func TestHotTeamAdmissionStressOversubscribed(t *testing.T) {
	admissionTestSetup(t, 2, AdmitTimeout, 2*time.Millisecond)
	SetAdmitQueueBound(8)
	prevPool := SetPoolSize(4)
	defer SetPoolSize(prevPool)

	const goroutines = 24
	const iters = 40
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		sizes := []int{2, 4, 8, 1}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			SetPoolSize(sizes[i%len(sizes)])
			SetTenantQuota("stress-0", i%3) // 0 clears, 1..2 cap
			if i%2 == 0 {
				SetAdmitPolicy(AdmitBlock, 0)
			} else {
				SetAdmitPolicy(AdmitTimeout, time.Millisecond)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var completed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("stress-%d", g%4)
			for i := 0; i < iters; i++ {
				tok := EnterTenant(tenant)
				func() {
					defer func() { recover() }() // panic-retire churn below
					Region(2+(i%3), func(w *Worker) {
						if w.ID == 0 && i%3 == 0 {
							Region(2, func(inner *Worker) {})
						}
						if w.ID == 1 && i%17 == 0 {
							panic("retire me")
						}
					})
				}()
				tok.Exit()
				completed.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	if got := completed.Load(); got != goroutines*iters {
		t.Fatalf("completed %d region entries, want %d", got, goroutines*iters)
	}
	waitCond(t, "all slots released", func() bool { return ReadAdmissionStats().Held == 0 })
	st := ReadAdmissionStats()
	if st.QueueDepth != 0 {
		t.Fatalf("waiters left queued after stress: %d", st.QueueDepth)
	}
	// Each outcome is counted once: the totals are the sums over tenants.
	var sum TenantAdmissionStats
	for _, ts := range st.Tenants {
		sum.Admitted += ts.Admitted
		sum.Queued += ts.Queued
		sum.Rejected += ts.Rejected
		sum.TimedOut += ts.TimedOut
		sum.WaitNs += ts.WaitNs
		sum.MaxWaitNs = max(sum.MaxWaitNs, ts.MaxWaitNs)
	}
	got := TenantAdmissionStats{Admitted: st.Admitted, Queued: st.Queued, Rejected: st.Rejected,
		TimedOut: st.TimedOut, WaitNs: st.WaitNs, MaxWaitNs: st.MaxWaitNs}
	if got != sum {
		t.Fatalf("admission totals %+v, want the sums over tenants %+v", got, sum)
	}
	if st.FastAdmits > st.Admitted {
		t.Fatalf("FastAdmits %d exceeds Admitted %d", st.FastAdmits, st.Admitted)
	}
}
