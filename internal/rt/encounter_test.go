package rt

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aomplib/internal/sched"
)

// ringModel drives the encounter-slot protocol one atomic step at a time:
// every worker runs `encounters` encounters of one construct over a small
// ring, and the checker explores every interleaving of their steps.
// tryClaim, setPhase, unref and free are the production primitives; each
// linearises at a single atomic operation, so a step is the unit the real
// code can be preempted at.
type ringModel struct {
	ring       []encSlot
	marker     []int64 // stand-in for the slot payload: the encounter that initialised it
	enc        []int64 // per worker: the encounter it is in (== encounters when done)
	pc         []int   // per worker: next step within that encounter
	slot       []*encSlot
	epoch      uint64
	encounters int64
}

const (
	pcClaim = iota
	pcInit
	pcPublish
	pcUse
	pcUnref
	pcFree
)

// step advances worker w by one atomic step, reporting whether it made
// progress (a busy claim attempt changes nothing) and any invariant it
// broke.
func (m *ringModel) step(w int) (progressed bool, err error) {
	e := m.enc[w]
	switch m.pc[w] {
	case pcClaim:
		s, first := tryClaim(m.ring, m.epoch, e, len(m.enc))
		if s == nil {
			return false, nil
		}
		// Holding a slot of encounter e means everyone released e-R: nobody
		// is more than R-1 encounters behind.
		for v, ev := range m.enc {
			if lead := e - ev; lead > int64(len(m.ring))-1 {
				return true, fmt.Errorf("worker %d entered encounter %d while worker %d is still in %d", w, e, v, ev)
			}
			if first && v != w && (ev > e || ev == e && m.pc[v] > pcClaim) {
				return true, fmt.Errorf("worker %d initialises encounter %d after worker %d already entered it", w, e, v)
			}
		}
		m.slot[w] = s
		m.pc[w] = pcUse
		if first {
			m.pc[w] = pcInit
		}
	case pcInit:
		m.marker[int(e)%len(m.ring)] = e
		m.pc[w] = pcPublish
	case pcPublish:
		m.slot[w].setPhase(slotReady)
		m.pc[w] = pcUse
	case pcUse:
		if got := m.marker[int(e)%len(m.ring)]; got != e {
			return true, fmt.Errorf("worker %d in encounter %d reads the payload of encounter %d", w, e, got)
		}
		m.pc[w] = pcUnref
	case pcUnref:
		m.pc[w] = pcClaim
		m.enc[w]++
		if m.slot[w].unref() {
			m.pc[w] = pcFree
			m.enc[w]-- // still holds the slot until it is freed
		}
	case pcFree:
		m.slot[w].free()
		m.pc[w] = pcClaim
		m.enc[w]++
	}
	return true, nil
}

type ringSnap struct {
	state  []uint64
	left   []int32
	marker []int64
	enc    []int64
	pc     []int
	slot   []*encSlot
}

func (m *ringModel) save() ringSnap {
	sn := ringSnap{
		marker: append([]int64(nil), m.marker...),
		enc:    append([]int64(nil), m.enc...),
		pc:     append([]int(nil), m.pc...),
		slot:   append([]*encSlot(nil), m.slot...),
	}
	for i := range m.ring {
		sn.state = append(sn.state, m.ring[i].state.Load())
		sn.left = append(sn.left, m.ring[i].left.Load())
	}
	return sn
}

func (m *ringModel) restore(sn ringSnap) {
	copy(m.marker, sn.marker)
	copy(m.enc, sn.enc)
	copy(m.pc, sn.pc)
	copy(m.slot, sn.slot)
	for i := range m.ring {
		m.ring[i].state.Store(sn.state[i])
		m.ring[i].left.Store(sn.left[i])
	}
}

// explore visits every state reachable from the current one, returning the
// first invariant violation or deadlock.
func (m *ringModel) explore(seen map[string]bool) error {
	sn := m.save()
	key := fmt.Sprint(sn.state, sn.left, sn.marker, sn.enc, sn.pc)
	if seen[key] {
		return nil
	}
	seen[key] = true
	live, moved := false, false
	for w := range m.enc {
		if m.enc[w] == m.encounters {
			continue
		}
		live = true
		progressed, err := m.step(w)
		if err == nil && progressed {
			moved = true
			err = m.explore(seen)
		}
		m.restore(sn)
		if err != nil {
			return err
		}
	}
	if live && !moved {
		return fmt.Errorf("deadlock: encounters %v, steps %v", m.enc, m.pc)
	}
	if !live {
		for i := range m.ring {
			if st := m.ring[i].state.Load(); st&slotPhase != slotFree || m.ring[i].left.Load() != 0 {
				return fmt.Errorf("slot %d not free after the last encounter: state %#x left %d", i, st, m.ring[i].left.Load())
			}
		}
	}
	return nil
}

// TestEncounterRingExhaustive model-checks claim / publish / release / lap
// on a ring of 2 at 2 and 3 workers, from a clean ring and from one a
// previous lease left dirty (a worker skipped the construct, so slots stay
// claimed or published under the old epoch).
func TestEncounterRingExhaustive(t *testing.T) {
	const ring, encounters, epoch = 2, 5, 7
	for _, workers := range []int{2, 3} {
		for _, dirty := range []bool{false, true} {
			m := &ringModel{
				ring:       make([]encSlot, ring),
				marker:     make([]int64, ring),
				enc:        make([]int64, workers),
				pc:         make([]int, workers),
				slot:       make([]*encSlot, workers),
				epoch:      epoch,
				encounters: encounters,
			}
			if dirty {
				m.ring[0].state.Store(slotTag(epoch-1, 0) | slotReady)
				m.ring[0].left.Store(1)
				m.ring[1].state.Store(slotTag(epoch-1, 3) | slotInit)
				m.ring[1].left.Store(int32(workers))
				m.marker[0], m.marker[1] = -1, -1
			}
			seen := map[string]bool{}
			if err := m.explore(seen); err != nil {
				t.Fatalf("workers=%d dirty=%v: %v", workers, dirty, err)
			}
			t.Logf("workers=%d dirty=%v: %d states", workers, dirty, len(seen))
		}
	}
}

// TestEncounterRingStress runs a nowait single and a barrier-less dynamic
// loop 10 000 times with one worker delayed: every single is claimed once,
// every iteration runs once, and no worker holds a slot of encounter e
// before every team-mate is done with encounter e-R — the run-ahead bound.
func TestEncounterRingStress(t *testing.T) {
	defer resetPool(t)()
	const workers, rounds, n = 3, 10_000, 8
	sp := sched.Space{Lo: 0, Hi: n, Step: 1}
	singleKey, forKey := new(int), new(int)
	claims := make([]atomic.Int32, rounds)
	hits := make([]atomic.Int32, rounds*n)
	var done [workers]atomic.Int64 // encounters each worker is about to release
	var maxLead atomic.Int64
	Region(workers, func(w *Worker) {
		for e := 0; e < rounds; e++ {
			if w.ID == workers-1 && e%97 == 0 {
				time.Sleep(30 * time.Microsecond)
			}
			if claim, _ := SingleBegin(w, singleKey, false); claim {
				claims[e].Add(1)
			}
			fc := BeginFor(w, forKey, sp, sched.Dynamic, 1, nil)
			for v := range done {
				lead := int64(e) - done[v].Load()
				if lead > encRing-1 {
					t.Errorf("worker %d holds encounter %d while worker %d has released only %d", w.ID, e, v, e-int(lead))
				}
				for {
					cur := maxLead.Load()
					if lead <= cur || maxLead.CompareAndSwap(cur, lead) {
						break
					}
				}
			}
			for {
				sub, _, ok := fc.Next()
				if !ok {
					break
				}
				for i := sub.Lo; i < sub.Hi; i += sub.Step {
					hits[e*n+i].Add(1)
				}
			}
			done[w.ID].Add(1) // before EndFor: never behind the real release
			fc.EndFor()
		}
	})
	for e := range claims {
		if c := claims[e].Load(); c != 1 {
			t.Fatalf("single encounter %d claimed %d times", e, c)
		}
	}
	for i := range hits {
		if h := hits[i].Load(); h != 1 {
			t.Fatalf("encounter %d iteration %d ran %d times", i/n, i%n, h)
		}
	}
	t.Logf("largest lead observed: %d encounters (bound %d)", maxLead.Load(), encRing-1)
}

// TestEncounterLeaseHermetic: a lease in which one worker skips every
// construct (what a chain swap under a running region produces) leaves
// slots claimed, published and counted under its epoch. The next leases of
// the reused team must not wedge on them, nor see the stale single claim,
// encounter counter or thread-local.
func TestEncounterLeaseHermetic(t *testing.T) {
	defer resetPool(t)()
	const n = 16
	sp := sched.Space{Lo: 0, Hi: n, Step: 1}
	voidKey, valueKey, forKey, tlsKey := new(int), new(int), new(int), new(int)
	var team *Team
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		team = w.Team
		SingleBegin(w, voidKey, false)
		if claim, s := SingleBegin(w, valueKey, true); claim {
			s.Broadcast(true, "stale")
		}
		fc := BeginFor(w, forKey, sp, sched.Dynamic, 1, nil)
		fc.Next() // leave the dispenser half drawn
		fc.EndFor()
		w.TLS(tlsKey, func() any { return "stale" })
	})
	if team.PendingInstances() == 0 {
		t.Fatal("the skipping lease left no slot pending: nothing to be hermetic against")
	}
	for lease := 0; lease < 2*encRing; lease++ {
		var claims, values atomic.Int32
		hits := make([]atomic.Int32, n)
		Region(2, func(w *Worker) {
			if w.Team != team {
				t.Errorf("lease %d was not served by the reused team", lease)
			}
			if cu := w.cursor(tlsKey); cu.tls != nil {
				t.Errorf("lease %d worker %d: thread-local %v survived the lease", lease, w.ID, cu.tls)
			}
			if claim, _ := SingleBegin(w, voidKey, false); claim {
				claims.Add(1)
			}
			claim, s := SingleBegin(w, valueKey, true)
			if claim {
				values.Add(1)
			}
			if got := s.Broadcast(claim, lease); got != lease {
				t.Errorf("lease %d: single broadcast %v", lease, got)
			}
			fc := BeginFor(w, forKey, sp, sched.Dynamic, 1, nil)
			for {
				sub, _, ok := fc.Next()
				if !ok {
					break
				}
				for i := sub.Lo; i < sub.Hi; i += sub.Step {
					hits[i].Add(1)
				}
			}
			fc.EndFor()
		})
		if claims.Load() != 1 || values.Load() != 1 {
			t.Fatalf("lease %d: singles claimed %d and %d times, want 1 and 1", lease, claims.Load(), values.Load())
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("lease %d: iteration %d ran %d times", lease, i, h)
			}
		}
		if p := team.PendingInstances(); p != 0 {
			t.Fatalf("lease %d: %d slots pending after a clean region", lease, p)
		}
	}
}

// lapOnce runs 2*encRing barrier-free loops on w: a worker whose team-mate
// never arrives laps on the R+1st.
func lapOnce(w *Worker, key any) {
	sp := sched.Space{Lo: 0, Hi: 4, Step: 1}
	for e := 0; e < 2*encRing; e++ {
		fc := BeginFor(w, key, sp, sched.Dynamic, 1, nil)
		for _, _, ok := fc.Next(); ok; _, _, ok = fc.Next() {
		}
		fc.EndFor()
	}
}

// joined fails the test unless region returns within the timeout, and
// reports what it panicked with.
func joined(t *testing.T, region func()) (panicked any) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		region()
	}()
	select {
	case panicked = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("region hung: a worker waited on a team-mate that had left")
	}
	return panicked
}

// TestLappedWorkerSurvivesFailedTeamMate: a worker lapped on a nowait
// construct waits for a release only its team-mates can give. When one of
// them panicked or left via Goexit the wait must end — the region joins and
// the panic re-raises, as in any barrier-free region.
func TestLappedWorkerSurvivesFailedTeamMate(t *testing.T) {
	defer resetPool(t)()
	for _, lapper := range []int{0, 1} {
		key := new(int)
		got := joined(t, func() {
			Region(2, func(w *Worker) {
				if w.ID != lapper {
					panic("boom")
				}
				lapOnce(w, key)
			})
		})
		if got != "boom" {
			t.Errorf("worker %d lapped, team-mate panicked: region re-raised %v, want boom", lapper, got)
		}
		// Goexit: nothing to re-raise, but the join must still complete. A
		// master that exits takes the entering goroutine with it, so joined
		// sees its deferred recover run with nil.
		if got := joined(t, func() {
			Region(2, func(w *Worker) {
				if w.ID != lapper {
					runtime.Goexit()
				}
				lapOnce(w, key)
			})
		}); got != nil {
			t.Errorf("worker %d lapped, team-mate exited: region panicked with %v", lapper, got)
		}
	}
	// The retired teams' successors start clean.
	hits, key := 0, new(int)
	Region(2, func(w *Worker) {
		lapOnce(w, key)
		if w.ID == 0 {
			hits++
		}
	})
	if hits != 1 {
		t.Fatalf("region after failed leases ran %d times", hits)
	}
}
