package rt

import "sync"

// The @Critical mechanism replaces Java's built-in synchronized: its scope
// is "all threads in the system" rather than one team, and the lock can be
// shared among multiple type-unrelated objects by naming it with an id
// (paper §III.C). Three registries back the three flavours the paper
// describes: named locks (@Critical(id=...)), per-object captured locks
// (criticalUsingCapturedLock), and per-key lock tables (the "lock per
// particle" case-specific strategy of Figure 15).
//
// The woven @Critical advice resolves its lock once, at weave time, and
// caches it in its binding: steady-state critical entries do one pointer
// load and never touch a registry. The named and per-object registries
// are therefore one map each, sized for weave-time traffic.

// namedLocks is the named-lock registry. A string-keyed sync.Map would box
// the key on every lookup; a plain map under a read lock does not.
var namedLocks struct {
	mu sync.RWMutex
	m  map[string]*sync.Mutex
}

// NamedLock returns the process-wide lock registered under id, creating it
// on first use. Annotations sharing an id therefore share a lock even
// across unrelated classes, as in OpenMP named critical sections.
func NamedLock(id string) *sync.Mutex {
	r := &namedLocks
	r.mu.RLock()
	l := r.m[id]
	r.mu.RUnlock()
	if l != nil {
		return l
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]*sync.Mutex)
	}
	if l = r.m[id]; l == nil {
		l = &sync.Mutex{}
		r.m[id] = l
	}
	return l
}

// objectLocks is the per-object registry.
var objectLocks sync.Map

// ObjectLock returns the lock owned by the given target, creating it on
// first use — the analogue of "the lock of the object where the annotation
// is defined is used (as in plain Java)". key must be comparable (use a
// pointer to the target object).
func ObjectLock(key any) *sync.Mutex {
	if l, ok := objectLocks.Load(key); ok {
		return l.(*sync.Mutex)
	}
	l, _ := objectLocks.LoadOrStore(key, &sync.Mutex{})
	return l.(*sync.Mutex)
}

// LockTable is a fixed-size table of locks indexed by a small integer key,
// supporting fine-grained strategies such as one lock per particle. Each
// lock sits on its own cache line: neighbouring particles are exactly the
// keys hot at the same time, and eight mutexes sharing a line would turn
// the fine-grained strategy back into coarse coherence traffic. The zero
// value is unusable; create tables with NewLockTable.
type LockTable struct {
	locks []paddedMutex
}

type paddedMutex struct {
	mu sync.Mutex
	_  [56]byte
}

// NewLockTable creates a table of n locks.
func NewLockTable(n int) *LockTable {
	return &LockTable{locks: make([]paddedMutex, n)}
}

// Lock locks entry key (clamped into range by modulo, so tables can be
// sized independently of the exact key universe).
func (t *LockTable) Lock(key int) { t.locks[t.index(key)].mu.Lock() }

// Unlock unlocks entry key.
func (t *LockTable) Unlock(key int) { t.locks[t.index(key)].mu.Unlock() }

// Len reports the number of locks in the table.
func (t *LockTable) Len() int { return len(t.locks) }

func (t *LockTable) index(key int) int {
	i := key % len(t.locks)
	if i < 0 {
		i += len(t.locks)
	}
	return i
}
