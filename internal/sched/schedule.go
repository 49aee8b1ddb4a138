package sched

import (
	"fmt"
	"math"
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
	return []Kind{StaticBlock, StaticCyclic, Dynamic, Guided, Custom, Adaptive}
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

// Resolve settles what width alone decides: on one worker every
// dispensing kind (Dynamic, Guided, Adaptive) is StaticBlock, since a lone
// worker runs every iteration in order under any of them, so the loop is
// one block with no dispenser and no end barrier. Every other kind, and
// every kind on a team, is returned as it is; a remaining Adaptive is
// resolved by the runtime's encounter state (rt.BeginFor). The trip count
// decides nothing; it stays in the signature for callers that pass it.
func Resolve(k Kind, _, nthreads int) Kind {
	if nthreads <= 1 && (k == Dynamic || k == Guided || k == Adaptive) {
		return StaticBlock
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
	g := (n-1)/autoGrainPieces + 1
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
// offset start, stride multiplied by the team size. With no more
// iterations than workers a share is one iteration or none and needs no
// stride; otherwise ValidateCyclic's error is a panic.
func Cyclic(sp Space, nthreads, id int) Space {
	if nthreads <= 0 {
		nthreads = 1
	}
	if sp.Count() <= nthreads {
		return sp.Slice(id, id+1)
	}
	if err := sp.ValidateCyclic(nthreads); err != nil {
		panic(err)
	}
	return Space{Lo: sp.At(id), Hi: sp.Hi, Step: sp.Step * nthreads}
}

// ValidateCyclic is Validate for s dealt round-robin over nthreads
// workers: it also errors when a share holds two iterations Step·nthreads
// apart and that stride overflows an int.
func (s Space) ValidateCyclic(nthreads int) error {
	n := max(1, nthreads)
	if s.Count() > n && (s.Step > math.MaxInt/n || s.Step < math.MinInt/n) {
		return fmt.Errorf("sched: space %v dealt cyclically over %d workers strides past an int", s, n)
	}
	return s.Validate()
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
