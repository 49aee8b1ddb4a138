package sched

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// Kind enumerates the built-in scheduling policies of the @For construct
// (paper Table 1: schedule = staticBlock | staticCyclic | dynamic; guided
// is provided as the Java-7-era extension the paper lists under current
// work, and Custom supports the "case specific" schedules of Table 2).
type Kind int

const (
	// StaticBlock assigns each worker one contiguous block of iterations,
	// with remainders spread one-per-worker from worker 0 (exact OpenMP
	// static semantics, refining the simplified formula of paper Fig. 10).
	StaticBlock Kind = iota
	// StaticCyclic deals iterations round-robin: worker id executes
	// iterations id, id+N, id+2N, ... (paper §II: "cyclic load-distribution").
	StaticCyclic
	// Dynamic hands out claims on a shared cursor on demand (paper Fig. 11;
	// default chunk 1): four chunks, one in the tail (Dispenser.NextBatch).
	Dynamic
	// Guided hands out exponentially shrinking claims (remaining/2N,
	// floored at the chunk size) from the same cursor.
	Guided
	// Steal carves one contiguous iteration range per worker statically —
	// the StaticBlock partition — and lets workers that exhaust their range
	// steal half the remainder of a loaded sibling (LLVM's static_steal;
	// OpenMP 5's nonmonotonic:dynamic permits exactly this reordering).
	// Owners draw chunks from their own cache line, so the per-chunk CAS
	// of Dynamic never becomes a team-wide contention point; balancing
	// costs one extra CAS only when a range actually runs dry.
	Steal
	// Custom delegates to a user ScheduleFunc (case-specific schedule).
	Custom
	// Auto picks a concrete schedule per construct encounter from the
	// loop's shape: static by blocks when the trip count is small relative
	// to the team (chunk dispensing would dominate such loops), guided
	// otherwise (self-balancing at negligible relative cost). The choice
	// is a pure function of trip count and team size (Resolve), so every
	// worker of a team resolves the same encounter identically.
	Auto
	// Runtime defers the choice to the process-wide default schedule
	// (SetDefault) — the OMP_SCHEDULE analogue. Sweeping schedules from a
	// benchmark flag needs no aspect changes: bind Runtime, set the
	// default per run.
	Runtime
	// WeightedSteal is Steal made asymmetry-aware (Saez et al.,
	// arXiv:2402.07664: equal chunking assumes uniform workers): the
	// initial contiguous ranges are carved proportionally to per-worker
	// speed weights the runtime measures (EWMA of iteration throughput),
	// and a dry worker steals from the *most loaded* sibling — the one
	// whose packed (lo,hi) word holds the largest remainder — instead of
	// the first non-empty slot a rotation scan finds. With no weights
	// available (untrained workers) it degrades to exactly Steal.
	WeightedSteal
	// Adaptive closes the obs→sched feedback loop: the runtime re-resolves
	// the schedule kind and chunk per construct encounter from the
	// previous encounter's measured per-worker imbalance (hot teams make
	// encounters persistent, so the state has a home). Like Auto it is an
	// indirect kind — Resolve inside the team-shared encounter state picks
	// the concrete policy — but unlike Auto the choice is fed by
	// measurement, not just the loop shape. Auto itself resolves to
	// Adaptive on re-encounters, so long-running Auto loops self-tune.
	Adaptive
)

// String implements fmt.Stringer; names match the paper's annotations.
func (k Kind) String() string {
	switch k {
	case StaticBlock:
		return "staticBlock"
	case StaticCyclic:
		return "staticCyclic"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	case Steal:
		return "steal"
	case Custom:
		return "caseSpecific"
	case Auto:
		return "auto"
	case Runtime:
		return "runtime"
	case WeightedSteal:
		return "weightedSteal"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists every named schedule in declaration order, for flag help
// and parser errors.
func Kinds() []Kind {
	return []Kind{StaticBlock, StaticCyclic, Dynamic, Guided, Steal, Custom, Auto, Runtime, WeightedSteal, Adaptive}
}

// ParseKind resolves a schedule name — as produced by Kind.String,
// case-insensitively — back to its Kind. Unknown names error with the
// valid list.
func ParseKind(s string) (Kind, error) {
	names := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("sched: unknown schedule %q (valid: %s)", s, strings.Join(names, ", "))
}

// defaultKind is the process-wide schedule behind Runtime. The zero value
// is StaticBlock — OpenMP's default — so unset means "static by blocks".
var defaultKind atomic.Int32

// Default returns the process-wide default schedule that Runtime resolves
// to.
func Default() Kind { return Kind(defaultKind.Load()) }

// SetDefault sets the process-wide default schedule, returning the
// previous one. Runtime (a self-reference) and Custom (it cannot carry the
// required ScheduleFunc through a process-wide knob) are rejected.
func SetDefault(k Kind) (Kind, error) {
	switch k {
	case StaticBlock, StaticCyclic, Dynamic, Guided, Steal, Auto, WeightedSteal, Adaptive:
		return Kind(defaultKind.Swap(int32(k))), nil
	case Runtime:
		return Default(), fmt.Errorf("sched: runtime cannot be its own default")
	case Custom:
		return Default(), fmt.Errorf("sched: caseSpecific needs a ScheduleFunc and cannot be the process default")
	}
	return Default(), fmt.Errorf("sched: unknown schedule Kind(%d)", int(k))
}

// autoGuidedMin is the per-worker trip count above which Auto prefers
// guided: below it the loop is too short for chunk dispensing to pay for
// the balancing it buys.
const autoGuidedMin = 64

// Resolve maps Runtime to the process-wide default, then Auto to a
// concrete policy chosen from the trip count and team size. Runtime reads
// the mutable default, so callers that need one decision per team
// encounter must call Resolve once and share the result (rt.BeginFor
// resolves inside the team-shared encounter state for exactly this
// reason).
func Resolve(k Kind, count, nthreads int) Kind {
	if k == Runtime {
		k = Default()
	}
	if k == Auto {
		if nthreads <= 1 || count < nthreads*autoGuidedMin {
			return StaticBlock
		}
		return Guided
	}
	if (k == Steal || k == WeightedSteal) && count > stealMaxCount {
		// The steal dispenser packs (lo, hi) iteration indices into one
		// 64-bit word (32 bits each) so ranges split with a single CAS;
		// loops too long for that fall back to the chunked dispenser.
		// Pure function of the trip count, so a team resolves uniformly.
		return Dynamic
	}
	if k == Adaptive {
		// Adaptive needs per-encounter team state to resolve; outside it —
		// one worker, or a space the steal dispenser cannot represent —
		// there is nothing to adapt between, so collapse to the shape-only
		// choice here. A remaining Adaptive is resolved by the runtime's
		// encounter state (rt.BeginFor), never dispatched on directly.
		if nthreads <= 1 {
			return StaticBlock
		}
		if count > stealMaxCount {
			return Guided
		}
	}
	return k
}

// autoGrainMin is the smallest chunk AutoGrain hands out: below it the
// per-piece dispatch cost dominates any body cheap enough to want a
// computed grain in the first place.
const autoGrainMin = 16

// autoGrainPieces bounds how many pieces AutoGrain cuts a space into.
// 256 gives a wide team plenty of units to balance with while keeping the
// split tree (and a Reduce's partial array) small.
const autoGrainPieces = 256

// AutoGrain picks a grainsize for decomposing an n-iteration generic
// range (parallel.For nesting, Reduce/Scan chunking) when the caller gave
// none. It is deliberately a pure function of n — never of the team
// width — so the decomposition shape, and therefore the combine tree of a
// deterministic Reduce/Scan, is identical at every width.
func AutoGrain(n int) int {
	if n <= 0 {
		return 1
	}
	g := (n + autoGrainPieces - 1) / autoGrainPieces
	if g < autoGrainMin {
		g = autoGrainMin
	}
	return g
}

// ScheduleFunc is the extension point for case-specific schedules: given
// the worker id, team size and full iteration space it returns the
// sub-spaces that worker must execute. Implementations must together cover
// every iteration exactly once across ids 0..nthreads-1.
type ScheduleFunc func(id, nthreads int, sp Space) []Space

// Block computes the StaticBlock sub-space for one worker. Workers with
// id < remainder receive one extra iteration, so block sizes differ by at
// most one.
func Block(sp Space, nthreads, id int) Space {
	n := sp.Count()
	if nthreads <= 0 {
		nthreads = 1
	}
	per := n / nthreads
	rem := n % nthreads
	var from int
	if id < rem {
		from = id * (per + 1)
	} else {
		from = rem*(per+1) + (id-rem)*per
	}
	size := per
	if id < rem {
		size++
	}
	return sp.Slice(from, from+size)
}

// Cyclic computes the StaticCyclic sub-space for one worker: same bounds,
// offset start, stride multiplied by the team size.
func Cyclic(sp Space, nthreads, id int) Space {
	if nthreads <= 0 {
		nthreads = 1
	}
	if id >= sp.Count() {
		return Space{Lo: sp.Lo, Hi: sp.Lo, Step: sp.Step}
	}
	return Space{Lo: sp.At(id), Hi: sp.Hi, Step: sp.Step * nthreads}
}

// Dispenser is the shared state behind Dynamic and Guided scheduling: a
// single atomic cursor over iteration-index space that workers claim
// ranges from. One Dispenser instance is shared by the whole team per
// construct encounter (the runtime layer manages instance identity). The
// cursor sits on its own cache line: every worker of the team CASes it, and
// sharing a line with the read-only bounds would drag those reads into the
// coherence storm.
type Dispenser struct {
	next atomic.Int64
	_    [56]byte // rest of the cursor's cache line
	// Immutable between Resets; read-shared without contention.
	total    int64
	chunk    int64
	guided   bool
	nthreads int64
}

// NewDispenser creates a dispenser over sp whose balance unit — the least a
// worker takes at a time — is chunk iterations. chunk < 1 is treated as 1
// (the paper's default), a chunk past the trip count as the trip count.
func NewDispenser(sp Space, chunk int, guided bool, nthreads int) *Dispenser {
	d := &Dispenser{}
	d.Reset(sp, chunk, guided, nthreads)
	return d
}

// Reset re-arms d in place for a new loop, as NewDispenser would build it.
// The caller must own d exclusively: no draw of the previous loop may still
// be in flight (rt resets a dispenser only inside an encounter slot it has
// just claimed).
func (d *Dispenser) Reset(sp Space, chunk int, guided bool, nthreads int) {
	n := sp.Count()
	d.next.Store(0)
	d.total, d.chunk = int64(n), int64(max(1, min(chunk, n)))
	d.guided, d.nthreads = guided, int64(max(1, nthreads))
}

// Next reserves the next chunk, returning iteration-index bounds [from, to).
// ok is false when the space is exhausted.
func (d *Dispenser) Next() (from, to int64, ok bool) { return d.NextBatch(1) }

// NextBatch is one claim: a single CAS on the shared cursor reserving the
// iteration-index range [from, to), which the caller executes as one piece.
// A dynamic claim is maxChunks whole chunks while more than maxChunks
// chunks per worker remain and one chunk in that tail, so the last claims
// balance as single chunks do; only the claim holding the loop's last
// iteration may be a partial chunk. A guided claim ignores maxChunks: the
// remaining count over twice the team width, never under one chunk. ok is
// false when the space is exhausted. No chunk or trip count can wrap a
// claim and move the cursor backwards: chunk ≤ total after Reset, a claim
// is clipped to what is left, and the tail test is formed in 128 bits.
func (d *Dispenser) NextBatch(maxChunks int) (from, to int64, ok bool) {
	for {
		cur := d.next.Load()
		left := d.total - cur
		if left <= 0 {
			return 0, 0, false
		}
		size := d.chunk
		if d.guided {
			size = max(size, left/(2*d.nthreads))
		} else if maxChunks > 1 {
			// left > chunk·maxChunks·nthreads? By widening multiply: a
			// division here would sit inside the cursor's CAS window.
			h1, batch := bits.Mul64(uint64(size), uint64(maxChunks))
			h2, all := bits.Mul64(batch, uint64(d.nthreads))
			if h1|h2 == 0 && all < uint64(left) {
				size = int64(batch)
			}
		}
		size = min(size, left)
		if d.next.CompareAndSwap(cur, cur+size) {
			return cur, cur + size, true
		}
	}
}

// Remaining reports how many iterations have not yet been dispensed.
// Intended for tests and diagnostics.
func (d *Dispenser) Remaining() int64 {
	r := d.total - d.next.Load()
	if r < 0 {
		return 0
	}
	return r
}

// ------------------------------------------------------ steal schedule --

// stealMaxCount bounds the trip count the steal dispenser can represent:
// (lo, hi) iteration indices share one 64-bit word, 32 bits each, so a
// range splits — owner claim from the front, thief claim from the back —
// with a single CAS and no lock.
const stealMaxCount = 1<<31 - 1

// stealSlot is one worker's remaining range, alone on its cache line:
// owners hammer their own slot, and only an out-of-work thief's CAS ever
// pulls the line away.
type stealSlot struct {
	bounds atomic.Uint64 // hi<<32 | lo, iteration indices
	_      [56]byte
}

func packRange(lo, hi int64) uint64 { return uint64(hi)<<32 | uint64(lo) }
func unpackRange(v uint64) (lo, hi int64) {
	return int64(v & 0xffffffff), int64(v >> 32)
}

// StealDispenser is the shared state behind the Steal schedule: the
// StaticBlock partition materialised as per-worker atomic ranges. Owners
// draw chunks from the front of their own range; a worker whose range is
// exhausted steals the back half of a loaded sibling's range and installs
// it as its new local range (LLVM static_steal). Iterations are executed
// exactly once: a range lives in exactly one slot, and every split is a
// single CAS on that slot.
type StealDispenser struct {
	slots []stealSlot
	chunk int64
	// loaded selects the WeightedSteal victim policy: scan every sibling
	// and steal from the one holding the largest remaining range, instead
	// of the first non-empty slot a rotation scan finds. Uniform Steal
	// keeps the rotation scan — its O(1) expected probes are the right
	// trade when ranges are symmetric anyway.
	loaded bool
}

// NewStealDispenser carves sp into one contiguous per-worker range each
// (the StaticBlock partition, remainders spread from worker 0). chunk < 1
// is treated as 1. sp.Count() must not exceed 2^31-1 — Resolve falls back
// to Dynamic above that, so construction never sees such spaces.
func NewStealDispenser(sp Space, chunk, nthreads int) *StealDispenser {
	if chunk < 1 {
		chunk = 1
	}
	if nthreads < 1 {
		nthreads = 1
	}
	d := &StealDispenser{slots: make([]stealSlot, nthreads), chunk: int64(chunk)}
	n := sp.Count()
	per := n / nthreads
	rem := n % nthreads
	lo := 0
	for id := 0; id < nthreads; id++ {
		size := per
		if id < rem {
			size++
		}
		d.slots[id].bounds.Store(packRange(int64(lo), int64(lo+size)))
		lo += size
	}
	return d
}

// NewStealDispenserWeighted carves sp into one contiguous range per worker
// sized proportionally to weights (measured worker speeds), so a 4x-faster
// worker starts with ~4x the iterations and the slow sibling is not handed
// work it must be robbed of later. weights that are nil, mis-sized, or
// unusable (weightedCuts) fall back to the balanced carve. Victim
// selection is most-loaded-first either way — under asymmetry the largest
// remainder marks the worker most in need of help, and halving it moves
// the most work per steal. The resulting dispenser serves the
// WeightedSteal schedule; chunk and count limits are as for
// NewStealDispenser.
func NewStealDispenserWeighted(sp Space, chunk, nthreads int, weights []float64) *StealDispenser {
	if nthreads < 1 {
		nthreads = 1
	}
	if chunk < 1 {
		chunk = 1
	}
	d := &StealDispenser{slots: make([]stealSlot, nthreads), chunk: int64(chunk), loaded: true}
	cuts := weightedCuts(sp.Count(), nthreads, weights)
	for id := 0; id < nthreads; id++ {
		d.slots[id].bounds.Store(packRange(int64(cuts[id]), int64(cuts[id+1])))
	}
	return d
}

// Next reserves the next chunk for worker id, returning iteration-index
// bounds [from, to). victim is the slot a range was stolen from when this
// call had to steal (the worker's own range had run dry), -1 otherwise;
// probes counts the sibling slots examined while stealing (0 when the
// local range served — the locality order is always self first, remote
// only when dry), so callers can observe fruitless scan length; ok is
// false when no work is left anywhere the worker could see. A false ok
// is conservative: a range being migrated by a concurrent thief can be
// missed, which costs balance, never coverage — the thief that owns it
// will execute it.
//
// Ids outside [0, nthreads) have no slot of their own: they steal a whole
// range per call and never install it anywhere, so a foreign caller can
// drain leftovers without aliasing a real worker's slot (the install
// store below is safe precisely because each slot has one owner).
func (d *StealDispenser) Next(id int) (from, to int64, victim, probes int, ok bool) {
	if id < 0 || id >= len(d.slots) {
		lo, hi, vi, pr := d.stealFrom(-1)
		if vi < 0 {
			return 0, 0, -1, pr, false
		}
		return lo, hi, vi, pr, true
	}
	victim = -1
	self := &d.slots[id]
	for {
		for {
			v := self.bounds.Load()
			lo, hi := unpackRange(v)
			if lo >= hi {
				break
			}
			take := d.chunk
			if hi-lo < take {
				take = hi - lo
			}
			if self.bounds.CompareAndSwap(v, packRange(lo+take, hi)) {
				return lo, lo + take, victim, probes, true
			}
		}
		lo, hi, vi, pr := d.stealFrom(id)
		probes += pr
		if vi < 0 {
			return 0, 0, victim, probes, false
		}
		victim = vi
		// The slot's owner is the only goroutine that writes an empty
		// slot, and thieves skip empty slots, so this plain store cannot
		// clobber a concurrent claim.
		self.bounds.Store(packRange(lo, hi))
	}
}

// stealFrom scans the slots other than id (id < 0 scans all) for a
// non-empty range and splits off its back half — or all of it when less
// than one chunk would remain — returning the stolen bounds, the victim's
// slot, and the number of slots probed. Uniform dispensers take the first
// non-empty slot of a rotation scan starting after id; loaded (weighted)
// dispensers complete the scan and target the slot with the largest
// remainder. Both retry while some victim visibly holds work (a failed
// CAS means another worker made progress, so the loop is lock-free) and
// report victim -1 once every slot scanned was empty.
func (d *StealDispenser) stealFrom(id int) (lo, hi int64, victim, probes int) {
	n := len(d.slots)
	for {
		best := -1
		var bestVal uint64
		var bestRem int64
		for i := 0; i < n; i++ {
			vi := i
			if id >= 0 {
				if i == 0 {
					continue // never steal from yourself
				}
				vi = (id + i) % n
			}
			v := &d.slots[vi]
			probes++
			val := v.bounds.Load()
			vlo, vhi := unpackRange(val)
			if vlo >= vhi {
				continue
			}
			if d.loaded {
				if rem := vhi - vlo; rem > bestRem {
					best, bestVal, bestRem = vi, val, rem
				}
				continue
			}
			if slo, shi, ok := d.trySteal(vi, val); ok {
				return slo, shi, vi, probes
			}
			best = vi // witnessed work: keep retrying the scan
		}
		if best < 0 {
			return 0, 0, -1, probes
		}
		if d.loaded {
			if slo, shi, ok := d.trySteal(best, bestVal); ok {
				return slo, shi, best, probes
			}
		}
	}
}

// trySteal CASes the back half out of slot vi given its observed bounds
// word — or the whole range when less than one chunk would remain, so the
// victim is never left a sub-chunk stub.
func (d *StealDispenser) trySteal(vi int, val uint64) (lo, hi int64, ok bool) {
	vlo, vhi := unpackRange(val)
	take := (vhi - vlo + 1) / 2
	if vhi-vlo-take < d.chunk {
		take = vhi - vlo
	}
	mid := vhi - take
	if d.slots[vi].bounds.CompareAndSwap(val, packRange(vlo, mid)) {
		return mid, vhi, true
	}
	return 0, 0, false
}

// Remaining reports how many iterations are still claimable across all
// ranges. Intended for tests and diagnostics; the sum is a snapshot, not
// an atomic observation.
func (d *StealDispenser) Remaining() int64 {
	var r int64
	for i := range d.slots {
		lo, hi := unpackRange(d.slots[i].bounds.Load())
		if hi > lo {
			r += hi - lo
		}
	}
	return r
}
