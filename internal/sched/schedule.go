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
	// Steal carves one contiguous iteration range per worker (the
	// StaticBlock partition), and lets workers that exhaust their range
	// steal half the remainder of the most loaded sibling (LLVM's
	// static_steal; OpenMP 5's nonmonotonic:dynamic permits exactly this
	// reordering). Owners draw
	// chunks from their own cache line, so the per-chunk CAS of Dynamic
	// never becomes a team-wide contention point; balancing costs one extra
	// CAS only when a range actually runs dry.
	Steal
	// Custom delegates to a user ScheduleFunc (case-specific schedule).
	Custom
	// Adaptive lets the runtime choose per construct encounter: the first
	// sight of a loop is decided from its shape (static by blocks when the
	// trip count is small relative to the team, guided otherwise), later
	// encounters from the imbalance the previous one measured (rt.BeginFor;
	// hot teams make encounters persistent, so the state has a home).
	Adaptive
)

// Auto is Adaptive under the name it had before it absorbed its
// first-sight rule; the name no longer parses.
const Auto = Adaptive

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
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists every named schedule in declaration order, for flag help,
// parser errors and validation.
func Kinds() []Kind {
	return []Kind{StaticBlock, StaticCyclic, Dynamic, Guided, Steal, Custom, Adaptive}
}

// ParseKind resolves a schedule name, as produced by Kind.String and
// case-insensitively, back to its Kind. Unknown names error with the
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

// Resolve settles what width and trip count alone decide. On one worker every dispensing kind (Dynamic,
// Guided, Steal, Adaptive) is StaticBlock: a lone worker runs every
// iteration in order under any of them, so the loop is one block with no
// dispenser and no end barrier. A trip count past what the steal dispenser
// can pack sends Steal to Dynamic and Adaptive to Guided. Custom and
// StaticCyclic are returned as they are. A remaining Adaptive is resolved
// by the runtime's encounter state (rt.BeginFor).
func Resolve(k Kind, count, nthreads int) Kind {
	switch {
	case nthreads <= 1 && (k == Dynamic || k == Guided || k == Steal || k == Adaptive):
		return StaticBlock
	case count <= stealMaxCount:
		return k
	case k == Steal:
		return Dynamic
	case k == Adaptive:
		return Guided
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
// range (parallel.For nesting, Reduce chunking) when the caller gave
// none. It is deliberately a pure function of n — never of the team
// width — so the decomposition shape, and therefore the combine tree of a
// deterministic Reduce, is identical at every width.
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

// StealDispenser is the shared state behind the Steal schedule: one
// contiguous range per worker, materialised as per-worker atomic words.
// Owners draw chunks from the front of their own range; a worker whose
// range is exhausted steals the back half of the most loaded sibling's
// range and installs it as its new local range (LLVM static_steal).
// Iterations are executed exactly once: a range lives in exactly one slot,
// and every split is a single CAS on that slot. The zero value is ready for
// Reset.
type StealDispenser struct {
	slots []stealSlot
	chunk int64
}

// Reset re-arms d in place for a loop over sp on nthreads workers, carving
// the StaticBlock partition: one contiguous range per worker, sizes within
// one iteration of each other. chunk < 1 is treated as 1. sp.Count() must
// not exceed 2^31-1 — Resolve sends longer Steal loops to Dynamic. The slot
// array is reused when it is large enough, so re-arming allocates nothing.
// The caller must own d exclusively, as for Dispenser.Reset.
func (d *StealDispenser) Reset(sp Space, chunk, nthreads int) {
	nthreads = max(1, nthreads)
	if cap(d.slots) < nthreads {
		d.slots = make([]stealSlot, nthreads)
	}
	d.slots, d.chunk = d.slots[:nthreads], int64(max(1, chunk))
	n := sp.Count()
	per, rem := n/nthreads, n%nthreads
	lo := 0
	for id := range d.slots {
		hi := lo + per
		if id < rem {
			hi++
		}
		d.slots[id].bounds.Store(packRange(int64(lo), int64(hi)))
		lo = hi
	}
}

// Next reserves the next chunk for worker id (0 ≤ id < nthreads),
// returning iteration-index bounds [from, to). victim is the slot a range
// was stolen from when this call had to steal (the worker's own range had
// run dry), -1 otherwise; probes counts the sibling slots examined while
// stealing (0 when the local range served — the locality order is always
// self first, remote only when dry), so callers can observe fruitless scan
// length; ok is false when no work is left anywhere the worker could see.
// A false ok is conservative: a range being migrated by a concurrent thief
// can be missed, which costs balance, never coverage — the thief that owns
// it will execute it.
func (d *StealDispenser) Next(id int) (from, to int64, victim, probes int, ok bool) {
	victim = -1
	self := &d.slots[id]
	for {
		for {
			v := self.bounds.Load()
			lo, hi := unpackRange(v)
			if lo >= hi {
				break
			}
			take := min(d.chunk, hi-lo)
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

// stealFrom scans every slot but id and splits off the back half of the
// largest remaining range — or all of it when less than one chunk would
// remain, so the victim is never left a sub-chunk stub. Under asymmetry the
// largest remainder marks the worker most in need of help, and halving it
// moves the most work per steal. It returns the stolen bounds, the victim's
// slot, and the number of slots probed; it retries while some victim
// visibly holds work (a failed CAS means another worker made progress, so
// the loop is lock-free) and reports victim -1 once every slot scanned was
// empty.
func (d *StealDispenser) stealFrom(id int) (lo, hi int64, victim, probes int) {
	for {
		best, bestVal := -1, uint64(0)
		var vlo, vhi int64
		for i := range d.slots {
			if i == id {
				continue // never steal from yourself
			}
			probes++
			val := d.slots[i].bounds.Load()
			if l, h := unpackRange(val); h-l > vhi-vlo {
				best, bestVal, vlo, vhi = i, val, l, h
			}
		}
		if best < 0 {
			return 0, 0, -1, probes
		}
		take := (vhi - vlo + 1) / 2
		if vhi-vlo-take < d.chunk {
			take = vhi - vlo
		}
		if d.slots[best].bounds.CompareAndSwap(bestVal, packRange(vlo, vhi-take)) {
			return vhi - take, vhi, best, probes
		}
	}
}
