package rt

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aomplib/internal/gls"
	"aomplib/internal/obs"
)

// Multi-tenant admission: fair arbitration of the process-wide hot-team
// pool under request traffic. A server that runs thousands of request
// goroutines, each entering small parallel regions, needs the opposite of
// the benchmark shape the pool was built for — many concurrent top-level
// leases instead of one caller re-entering a big region. With admission
// control enabled, every top-level region entry first obtains a lease slot
// from a bounded controller:
//
//   - at most MaxTeams top-level regions hold teams concurrently (the
//     default tracks the pool capacity, so offered load beyond the warm
//     pool queues instead of cold-spawning goroutine herds);
//   - waiters queue FIFO, so ordering is starvation-free by construction —
//     a tenant cannot be overtaken indefinitely by later arrivals;
//   - per-tenant quotas cap how many slots one tenant may hold at once; a
//     waiter whose tenant is over quota is skipped (it waits for its own
//     tenant's releases), never blocking other tenants behind it;
//   - when no slot is available the configured policy decides: Block waits
//     (bounded queue), Timeout waits up to a deadline, Reject refuses
//     immediately. A refused or timed-out entry does not fail — it
//     degrades gracefully: the region runs serialized on the calling
//     goroutine (a cold team of one that bypasses the pool, so saturation
//     cannot thrash warm inventory out of it). The parallel-region
//     contract "the body always executes" holds under any load.
//
// Nested region entries never pass through admission: the top-level entry
// already holds the slot, and queueing inside a held slot could deadlock.
// Admission off (the default) costs region entry one atomic load.

// AdmitPolicy selects what a region entry does when no lease slot is
// available.
type AdmitPolicy uint8

const (
	// AdmitBlock queues the entry FIFO until a slot frees (bounded queue;
	// overflow degrades to serialized execution instead of blocking).
	AdmitBlock AdmitPolicy = iota
	// AdmitTimeout queues like AdmitBlock but degrades to serialized
	// execution when the configured timeout elapses first.
	AdmitTimeout
	// AdmitReject refuses immediately: the entry runs serialized without
	// ever waiting. The fail-fast policy for latency-bound servers.
	AdmitReject
)

// String implements fmt.Stringer for diagnostics and reports.
func (p AdmitPolicy) String() string {
	switch p {
	case AdmitBlock:
		return "block"
	case AdmitTimeout:
		return "timeout"
	case AdmitReject:
		return "reject"
	}
	return "unknown"
}

// admissionOn gates the whole layer; the zero value (off) keeps the
// uncontended warm region entry at one extra atomic load.
var admissionOn atomic.Bool

// DefaultAdmitQueueBound is the wait-queue bound used when
// SetAdmitQueueBound has not set one. Beyond it, even AdmitBlock entries
// degrade instead of queueing — a bounded queue rejects rather than
// deadlocks at saturation.
const DefaultAdmitQueueBound = 1024

// tenantState is one tenant's admission accounting. Tenants are created on
// first use and never removed (their identity anchors cumulative stats).
type tenantState struct {
	name string
	id   uint64

	quota atomic.Int32 // max concurrent slots; 0 = unlimited
	held  atomic.Int32 // slots held right now

	admitted atomic.Uint64 // leases granted
	queued   atomic.Uint64 // entries that waited in the queue (granted or timed out)
	rejected atomic.Uint64 // lease requests refused; each ran serialized
	timedOut atomic.Uint64 // refusals due to queue-wait timeout
	waitNs   atomic.Uint64 // total queue-wait nanoseconds
	maxWait  atomic.Uint64 // max single queue wait, nanoseconds
}

func (t *tenantState) recordWait(ns uint64) {
	t.waitNs.Add(ns)
	for {
		cur := t.maxWait.Load()
		if ns <= cur || t.maxWait.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// admitWaiter is one queued region entry. granted/refused transitions
// happen under the controller mutex; ready is closed exactly once.
type admitWaiter struct {
	tenant  *tenantState
	ready   chan struct{}
	granted bool
}

// admitController is the process-wide arbitration state.
type admitController struct {
	mu         sync.Mutex
	policy     AdmitPolicy
	timeout    time.Duration
	maxTeams   int // explicit cap; 0 derives from the pool capacity
	queueBound int // explicit bound; 0 selects DefaultAdmitQueueBound
	held       int // slots currently granted
	queue      []*admitWaiter
	queuePeak  int

	tenantsMu sync.Mutex
	tenants   map[string]*tenantState
	tenantIDs atomic.Uint64

	// fastAdmits counts grants that never queued. Every other outcome is
	// counted once, per tenant; ReadAdmissionStats sums the tenants.
	fastAdmits atomic.Uint64
}

var admCtl = admitController{
	timeout: 50 * time.Millisecond,
	tenants: map[string]*tenantState{},
}

// defaultTenant accounts entries with no EnterTenant binding in scope.
var defaultTenant = admCtl.tenantFor("default")

// tenantFor returns the tenant state for name, creating it on first use.
func (c *admitController) tenantFor(name string) *tenantState {
	c.tenantsMu.Lock()
	defer c.tenantsMu.Unlock()
	if c.tenants == nil {
		c.tenants = map[string]*tenantState{}
	}
	t := c.tenants[name]
	if t == nil {
		t = &tenantState{name: name, id: c.tenantIDs.Add(1)}
		c.tenants[name] = t
	}
	return t
}

// capLocked resolves the concurrent-lease bound: the explicit SetAdmitMaxTeams
// value, or the pool's idle-worker capacity expressed in default-sized teams
// — admit what the warm pool can serve, queue the rest. Called with c.mu
// held; takes poolMu (admission mu → poolMu is the one permitted order).
func (c *admitController) capLocked() int {
	if c.maxTeams > 0 {
		return c.maxTeams
	}
	poolMu.Lock()
	workers := poolCapacityLocked()
	poolMu.Unlock()
	teams := workers / DefaultThreads()
	if teams < 1 {
		teams = 1
	}
	return teams
}

func (c *admitController) queueBoundLocked() int {
	if c.queueBound > 0 {
		return c.queueBound
	}
	return DefaultAdmitQueueBound
}

// canGrantLocked reports whether tenant t may take a slot right now.
func (c *admitController) canGrantLocked(t *tenantState) bool {
	if c.held >= c.capLocked() {
		return false
	}
	if q := t.quota.Load(); q > 0 && t.held.Load() >= q {
		return false
	}
	return true
}

// grantLocked takes a slot for t.
func (c *admitController) grantLocked(t *tenantState) {
	c.held++
	t.held.Add(1)
}

// pumpLocked grants queued waiters in FIFO order while slots remain. A
// waiter whose tenant is over quota is skipped in place — it keeps its
// queue position for when its own tenant releases, and never blocks the
// tenants behind it (the starvation-free ordering invariant: global FIFO
// across tenants, per-tenant quota skips only the offender).
func (c *admitController) pumpLocked() {
	for c.held < c.capLocked() {
		granted := -1
		for i, w := range c.queue {
			if c.canGrantLocked(w.tenant) {
				granted = i
				break
			}
		}
		if granted < 0 {
			return
		}
		w := c.queue[granted]
		copy(c.queue[granted:], c.queue[granted+1:])
		c.queue[len(c.queue)-1] = nil
		c.queue = c.queue[:len(c.queue)-1]
		c.grantLocked(w.tenant)
		w.granted = true
		close(w.ready)
	}
}

// removeWaiterLocked unlinks a timed-out waiter; reports false when the
// waiter was granted before the lock was taken (the grant wins the race).
func (c *admitController) removeWaiterLocked(w *admitWaiter) bool {
	if w.granted {
		return false
	}
	for i, q := range c.queue {
		if q == w {
			copy(c.queue[i:], c.queue[i+1:])
			c.queue[len(c.queue)-1] = nil
			c.queue = c.queue[:len(c.queue)-1]
			return true
		}
	}
	return false
}

// admitGrant is the outcome of admitRegion threaded back to RegionArg.
type admitGrant struct {
	tenant   *tenantState // non-nil when a slot is held (admitExit required)
	degraded bool         // run serialized (team of one, pool bypassed)
}

// admitRegion arbitrates one top-level region entry: grant a slot (fast or
// after queueing, per policy) or degrade. Emits the obs AdmitGrant event.
func admitRegion() admitGrant {
	c := &admCtl
	tk, _ := tenantStore.Current().(*TenantToken)
	ts := defaultTenant
	if tk != nil {
		ts = tk.st
	}

	c.mu.Lock()
	if c.canGrantLocked(ts) {
		c.grantLocked(ts)
		c.mu.Unlock()
		ts.admitted.Add(1)
		c.fastAdmits.Add(1) // after: a reader loading it first sees Admitted ≥ FastAdmits
		if tk != nil {
			tk.admitted.Add(1)
		}
		if h := obs.Active(); h != nil {
			h.AdmitGrant(ts.id, 0)
		}
		return admitGrant{tenant: ts}
	}

	policy, timeout := c.policy, c.timeout
	if policy == AdmitReject || len(c.queue) >= c.queueBoundLocked() {
		c.mu.Unlock()
		return refuse(c, ts, tk)
	}

	w := &admitWaiter{tenant: ts, ready: make(chan struct{})}
	c.queue = append(c.queue, w)
	if len(c.queue) > c.queuePeak {
		c.queuePeak = len(c.queue)
	}
	c.mu.Unlock()
	ts.queued.Add(1)
	if tk != nil {
		tk.queuedWaits.Add(1)
	}

	start := obs.Now()
	if policy == AdmitTimeout && timeout > 0 {
		timer := time.NewTimer(timeout)
		select {
		case <-w.ready:
			timer.Stop()
		case <-timer.C:
			c.mu.Lock()
			removed := c.removeWaiterLocked(w)
			c.mu.Unlock()
			if removed {
				ts.timedOut.Add(1)
				if tk != nil {
					tk.timedOut.Add(1)
				}
				return refuse(c, ts, tk)
			}
			// The grant raced the timer and won; consume it.
			<-w.ready
		}
	} else {
		<-w.ready
	}
	ns := uint64(obs.Now() - start)
	ts.recordWait(ns)
	ts.admitted.Add(1)
	if tk != nil {
		tk.admitted.Add(1)
	}
	if h := obs.Active(); h != nil {
		h.AdmitGrant(ts.id, int64(ns))
	}
	return admitGrant{tenant: ts}
}

// refuse records one refused lease and returns the degraded outcome.
func refuse(c *admitController, ts *tenantState, tk *TenantToken) admitGrant {
	ts.rejected.Add(1)
	if tk != nil {
		tk.rejected.Add(1)
	}
	return admitGrant{degraded: true}
}

// admitExit returns a slot and wakes the next eligible waiter.
func admitExit(ts *tenantState) {
	c := &admCtl
	c.mu.Lock()
	c.held--
	ts.held.Add(-1)
	c.pumpLocked()
	c.mu.Unlock()
}

// SetAdmissionControl enables or disables the admission layer, returning
// the previous setting. Disabling grants every queued waiter (their
// regions proceed with full teams; the slots release normally).
func SetAdmissionControl(on bool) bool {
	prev := admissionOn.Swap(on)
	if !on {
		c := &admCtl
		c.mu.Lock()
		for _, w := range c.queue {
			c.grantLocked(w.tenant)
			w.granted = true
			close(w.ready)
		}
		c.queue = c.queue[:0]
		c.mu.Unlock()
	}
	return prev
}

// SetAdmitPolicy sets the backpressure policy (and the queue-wait timeout,
// meaningful for AdmitTimeout), returning the previous pair. A freshly
// relaxed policy does not re-evaluate waiters already queued.
func SetAdmitPolicy(p AdmitPolicy, timeout time.Duration) (AdmitPolicy, time.Duration) {
	c := &admCtl
	c.mu.Lock()
	prevP, prevT := c.policy, c.timeout
	c.policy = p
	if timeout > 0 {
		c.timeout = timeout
	}
	c.mu.Unlock()
	return prevP, prevT
}

// SetAdmitMaxTeams bounds how many top-level regions may hold teams
// concurrently (0 restores the default, which tracks the hot-team pool
// capacity in default-sized teams). Returns the previous explicit bound.
// Raising the bound immediately grants eligible waiters.
func SetAdmitMaxTeams(n int) int {
	if n < 0 {
		n = 0
	}
	c := &admCtl
	c.mu.Lock()
	prev := c.maxTeams
	c.maxTeams = n
	c.pumpLocked()
	c.mu.Unlock()
	return prev
}

// SetAdmitQueueBound bounds the admission wait queue (0 restores
// DefaultAdmitQueueBound). Entries that would overflow the bound degrade to
// serialized execution instead of queueing — the saturation valve. Returns
// the previous explicit bound.
func SetAdmitQueueBound(n int) int {
	if n < 0 {
		n = 0
	}
	c := &admCtl
	c.mu.Lock()
	prev := c.queueBound
	c.queueBound = n
	c.mu.Unlock()
	return prev
}

// SetTenantQuota caps how many lease slots the named tenant may hold
// concurrently (0 removes the cap), returning the previous quota. Raising
// a quota immediately grants the tenant's eligible waiters.
func SetTenantQuota(name string, maxConcurrent int) int {
	if maxConcurrent < 0 {
		maxConcurrent = 0
	}
	ts := admCtl.tenantFor(name)
	prev := int(ts.quota.Swap(int32(maxConcurrent)))
	c := &admCtl
	c.mu.Lock()
	c.pumpLocked()
	c.mu.Unlock()
	return prev
}

// ------------------------------------------------------- tenant binding --

// tenantStore binds a TenantToken to the calling goroutine (and, with the
// default gls backend, to goroutines spawned in its dynamic extent).
var tenantStore = gls.NewStore()

// TenantToken is one tenant-scoped admission context, bound to the calling
// goroutine by EnterTenant. Region entries in its scope are arbitrated
// against the token's tenant and record their outcomes on the token, so a
// request handler can tell afterwards whether its regions were granted a
// lease, queued first, or refused. A woven region that runs on one worker
// because that measures faster (Grain) is granted, not refused. Outcome
// counters are cumulative over the token's lifetime (atomics: inherited
// bindings may enter regions concurrently).
type TenantToken struct {
	st  *tenantState
	tok gls.Token

	admitted    atomic.Uint32
	queuedWaits atomic.Uint32
	rejected    atomic.Uint32
	timedOut    atomic.Uint32
}

// EnterTenant binds the calling goroutine to the named tenant for admission
// accounting and returns the token; Exit unbinds it. Tokens nest — the
// innermost binding wins. Typical server use is one token per request:
//
//	tok := rt.EnterTenant(tenantID)
//	defer tok.Exit()
//	...woven parallel code...
//	if tok.Rejected() > 0 { /* shed load signal */ }
func EnterTenant(name string) *TenantToken {
	tk := &TenantToken{st: admCtl.tenantFor(name)}
	tk.tok = tenantStore.PushToken(tk)
	return tk
}

// Exit removes the token's goroutine binding. Must be called on the
// goroutine that called EnterTenant, after any regions in its scope have
// completed.
func (tk *TenantToken) Exit() { tenantStore.Restore(tk.tok) }

// Tenant reports the token's tenant name.
func (tk *TenantToken) Tenant() string { return tk.st.name }

// Admitted reports how many region entries in this token's scope were
// granted a team lease (fast-path or after queueing).
func (tk *TenantToken) Admitted() int { return int(tk.admitted.Load()) }

// Queued reports how many region entries in this token's scope waited in
// the admission queue before their grant.
func (tk *TenantToken) Queued() int { return int(tk.queuedWaits.Load()) }

// Rejected reports how many region entries in this token's scope were
// refused a lease (reject policy, full queue, or timeout) and ran
// serialized.
func (tk *TenantToken) Rejected() int { return int(tk.rejected.Load()) }

// TimedOut reports how many of the token's refusals were queue-wait
// timeouts.
func (tk *TenantToken) TimedOut() int { return int(tk.timedOut.Load()) }

// Degraded returns Rejected: every refused entry runs serialized.
//
// Deprecated: use Rejected.
func (tk *TenantToken) Degraded() int { return int(tk.rejected.Load()) }

// --------------------------------------------------------------- stats --

// TenantAdmissionStats is one tenant's slice of AdmissionStats.
type TenantAdmissionStats struct {
	Name  string // tenant name (EnterTenant argument)
	ID    uint64 // tenant id carried by obs admission events
	Quota int    // concurrent-slot cap; 0 = unlimited
	Held  int    // slots held right now

	Admitted  uint64 // leases granted
	Queued    uint64 // entries that waited in the queue (granted or timed out)
	Rejected  uint64 // lease requests refused; each ran serialized
	TimedOut  uint64 // refusals due to queue-wait timeout
	WaitNs    uint64 // total queue-wait nanoseconds
	MaxWaitNs uint64 // longest single queue wait
}

// AdmissionStats is a snapshot of the admission controller: configuration,
// instantaneous queue state, cumulative counters, and the per-tenant
// breakdown (sorted by name). Counter invariants: Admitted = FastAdmits +
// grants-after-queueing, every refusal (Rejected) ran serialized, and each
// tenant's Held never exceeds its Quota when one is set.
type AdmissionStats struct {
	Enabled    bool
	Policy     AdmitPolicy
	Timeout    time.Duration
	MaxTeams   int // effective concurrent-lease bound
	QueueBound int // effective wait-queue bound

	Held       int // slots granted right now
	QueueDepth int // waiters queued right now
	QueuePeak  int // deepest queue observed

	FastAdmits uint64
	Queued     uint64
	Admitted   uint64
	Rejected   uint64
	TimedOut   uint64
	WaitNs     uint64
	MaxWaitNs  uint64

	Tenants []TenantAdmissionStats
}

// ReadAdmissionStats snapshots the admission controller.
func ReadAdmissionStats() AdmissionStats {
	c := &admCtl
	c.mu.Lock()
	st := AdmissionStats{
		Enabled:    admissionOn.Load(),
		Policy:     c.policy,
		Timeout:    c.timeout,
		MaxTeams:   c.capLocked(),
		QueueBound: c.queueBoundLocked(),
		Held:       c.held,
		QueueDepth: len(c.queue),
		QueuePeak:  c.queuePeak,
	}
	c.mu.Unlock()
	st.FastAdmits = c.fastAdmits.Load()

	c.tenantsMu.Lock()
	for _, t := range c.tenants {
		ts := TenantAdmissionStats{
			Name:      t.name,
			ID:        t.id,
			Quota:     int(t.quota.Load()),
			Held:      int(t.held.Load()),
			Admitted:  t.admitted.Load(),
			Queued:    t.queued.Load(),
			Rejected:  t.rejected.Load(),
			TimedOut:  t.timedOut.Load(),
			WaitNs:    t.waitNs.Load(),
			MaxWaitNs: t.maxWait.Load(),
		}
		st.Tenants = append(st.Tenants, ts)
		st.Queued += ts.Queued
		st.Admitted += ts.Admitted
		st.Rejected += ts.Rejected
		st.TimedOut += ts.TimedOut
		st.WaitNs += ts.WaitNs
		st.MaxWaitNs = max(st.MaxWaitNs, ts.MaxWaitNs)
	}
	c.tenantsMu.Unlock()
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })
	return st
}
