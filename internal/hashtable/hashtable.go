// Package hashtable provides the concurrent hash tables behind the
// Delaunay face map, the closest-pair grids, and the SCC combine.
//
// The paper's parallel algorithms assume a work-efficient parallel hash
// table (Gil, Matias & Vishkin). Two implementations of the shared Table
// interface are provided: LockFreeInline, a growable phase-concurrent
// open-addressing table (CAS-claimed linear-probing slots, cooperative
// migration) whose values live inline in seqlock-guarded slots, so no
// write allocates — every consumer runs on it; and Map, a sharded mutex
// map kept as the reference implementation and equivalence-test oracle.
// DESIGN.md in this directory has the full protocol and the ablations.
package hashtable

import "sync"

// Table is the operation set the consumers program against; Map and
// LockFreeInline both implement it. Update-style callbacks must be pure for
// LockFreeInline (they may be re-run; see its doc comment), and the bulk
// operations Len/Range are phase operations on it.
type Table[K comparable, V any] interface {
	Load(k K) (V, bool)
	Store(k K, v V)
	Delete(k K)
	Update(k K, f func(old V, ok bool) V)
	UpdateIf(k K, f func(old V, ok bool) (V, bool))
	Len() int
	Range(f func(k K, v V) bool)
	// Epoch returns the table's current publication epoch (see epoch.go).
	Epoch() uint64
	// AdvanceEpoch flattens the table and bumps its epoch, reclaiming
	// superseded slot arrays no open snapshot can reference. Phase
	// operation; the round engine calls it at each committed boundary.
	AdvanceEpoch() uint64
	// Snapshot opens a read-only view that stays torn-free and valid
	// while mutators keep running; see Snap for the exact guarantees.
	// O(1) on the lock-free table, a frozen copy on Map.
	Snapshot() Snap[K, V]
}

var (
	_ Table[int, int] = (*Map[int, int])(nil)
	_ Table[int, int] = (*LockFreeInline[int, int])(nil)
)

// Hasher maps a key to a 64-bit hash. Implementations must be deterministic
// and spread keys well across the low bits.
type Hasher[K comparable] func(K) uint64

// Map is a concurrent hash map sharded by key hash. The zero value is not
// usable; construct with New.
type Map[K comparable, V any] struct {
	epochCore
	shards []shard[K, V]
	mask   uint64
	hash   Hasher[K]
}

type shard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
	_  [40]byte // pad to reduce false sharing between adjacent shards
}

// New returns a map with the given number of shards (rounded up to a power
// of two, minimum 1) and an expected total capacity hint.
func New[K comparable, V any](shardCount, capacity int, hash Hasher[K]) *Map[K, V] {
	sc := 1
	for sc < shardCount {
		sc *= 2
	}
	m := &Map[K, V]{
		shards: make([]shard[K, V], sc),
		mask:   uint64(sc - 1),
		hash:   hash,
	}
	per := capacity / sc
	if per < 8 {
		per = 8
	}
	for i := range m.shards {
		m.shards[i].m = make(map[K]V, per)
	}
	return m
}

func (m *Map[K, V]) shardFor(k K) *shard[K, V] {
	h := m.hash(k)
	// Mix the high bits down so weak hashers still spread across shards.
	h ^= h >> 32
	return &m.shards[h&m.mask]
}

// Load returns the value for k, if present.
func (m *Map[K, V]) Load(k K) (V, bool) {
	s := m.shardFor(k)
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// Store sets the value for k.
func (m *Map[K, V]) Store(k K, v V) {
	s := m.shardFor(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// Delete removes k.
func (m *Map[K, V]) Delete(k K) {
	s := m.shardFor(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// Update applies f to the current value for k (zero value and ok=false if
// absent) while holding the shard lock, and stores the result. It is the
// atomic read-modify-write used to attach the two triangles of a face.
func (m *Map[K, V]) Update(k K, f func(old V, ok bool) V) {
	s := m.shardFor(k)
	s.mu.Lock()
	old, ok := s.m[k]
	s.m[k] = f(old, ok)
	s.mu.Unlock()
}

// UpdateIf is Update with a leave-as-is escape hatch: f returns the value
// to store and whether to store it. When f reports false the table is left
// untouched — no write, and no insert for an absent key. It is the op to
// use for pruned min/max-writes and other read-mostly read-modify-writes:
// on the no-op path the lock-free implementation stays read-only and
// claims no slot.
func (m *Map[K, V]) UpdateIf(k K, f func(old V, ok bool) (V, bool)) {
	s := m.shardFor(k)
	s.mu.Lock()
	old, ok := s.m[k]
	if v, write := f(old, ok); write {
		s.m[k] = v
	}
	s.mu.Unlock()
}

// Len returns the total number of entries (taking each shard lock briefly).
func (m *Map[K, V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Range calls f for every entry until f returns false. Concurrent mutation
// of other shards during iteration is allowed; the snapshot is per-shard.
func (m *Map[K, V]) Range(f func(k K, v V) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		keys := make([]K, 0, len(s.m))
		vals := make([]V, 0, len(s.m))
		for k, v := range s.m {
			keys = append(keys, k)
			vals = append(vals, v)
		}
		s.mu.Unlock()
		for j := range keys {
			if !f(keys[j], vals[j]) {
				return
			}
		}
	}
}

// Mix64 is a convenience 64-bit mixer (SplitMix64 finalizer) for building
// Hashers from integer keys.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
