package hashtable

// Tests specific to the lock-free table: torn-read stress (the seqlock's
// whole job is multi-word consistency), allocation pins for the write
// paths, growth (sequential with tombstones, and concurrent), priority
// writes, a full root table whose keys live in its successor, and a
// deterministic phase stress with exact final contents. The oracle and
// fuzz suites replay every stream through LockFreeInline as well
// (oracle_test.go, fuzz_test.go).

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// pairVal is a two-word POD whose halves must always be observed
// together: b is derived from a, so any torn read is detectable.
type pairVal struct {
	a, b uint64
}

const pairMagic = 0x9e3779b97f4a7c15

func encPair(v pairVal) (uint64, uint64) { return v.a, v.b }
func decPair(a, b uint64) pairVal        { return pairVal{a, b} }

func newInlinePair(capacity int) *LockFreeInline[int, pairVal] {
	return NewLockFreeInline[int, pairVal](capacity,
		func(k int) uint64 { return Mix64(uint64(k)) }, encPair, decPair)
}

func newInlineInt(capacity int) *LockFreeInline[int, int] {
	return NewLockFreeInline[int, int](capacity,
		func(k int) uint64 { return Mix64(uint64(k)) }, EncInt, DecInt)
}

// TestInlineTornReadStress hammers a small key space with two-word writes
// whose halves are linked (b = a*magic), while readers assert every
// snapshot is internally consistent. Concurrent inserts of fresh keys
// force cooperative migrations under the readers' feet, so frozen slots
// and installs are read through the same seqlock path. Run under -race by
// the CI race job.
func TestInlineTornReadStress(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4
	}
	writes, growKeys := 20000, 4000
	if testing.Short() {
		writes, growKeys = 4000, 800
	}
	m := newInlinePair(2) // tiny: every run crosses several migrations
	const hotKeys = 16
	var stop atomic.Bool
	var torn atomic.Int64
	var writers, readers sync.WaitGroup

	// Writers: each write keeps the invariant b == a*pairMagic.
	for g := 0; g < p; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < writes; i++ {
				a := uint64(g)<<32 | uint64(i)
				m.Store(i%hotKeys, pairVal{a, a * pairMagic})
				m.Update((i+g)%hotKeys, func(old pairVal, ok bool) pairVal {
					if ok && old.b != old.a*pairMagic {
						torn.Add(1)
					}
					na := old.a + 1
					return pairVal{na, na * pairMagic}
				})
			}
		}(g)
	}
	// Growers: insert fresh keys so migrations run concurrently with the
	// hot-key traffic above.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < growKeys; i++ {
			a := uint64(1_000_000 + i)
			m.Store(1000+i, pairVal{a, a * pairMagic})
		}
	}()
	// Readers: every observed value must satisfy the invariant.
	for g := 0; g < p; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				for k := 0; k < hotKeys; k++ {
					if v, ok := m.Load(k); ok && v.b != v.a*pairMagic {
						torn.Add(1)
					}
				}
			}
		}()
	}

	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("observed %d torn reads", n)
	}
	// Post-quiescence: grown keys all present and consistent.
	for i := 0; i < growKeys; i++ {
		v, ok := m.Load(1000 + i)
		if !ok || v.b != v.a*pairMagic {
			t.Fatalf("grown key %d = (%+v,%v), want consistent pair", 1000+i, v, ok)
		}
	}
}

// TestInlineWriteNoAlloc pins the point of the inline table: Store,
// winning Update, UpdateIf (writing, and declining on a present or an
// absent key), Delete and Load allocate nothing once the table is at
// capacity.
func TestInlineWriteNoAlloc(t *testing.T) {
	m := newInlinePair(1024)
	for i := 0; i < 256; i++ {
		a := uint64(i)
		m.Store(i, pairVal{a, a * pairMagic})
	}
	checks := []struct {
		name string
		op   func()
	}{
		{"store", func() {
			a := uint64(42)
			m.Store(7, pairVal{a, a * pairMagic})
		}},
		{"update", func() {
			m.Update(9, func(old pairVal, ok bool) pairVal {
				na := old.a + 1
				return pairVal{na, na * pairMagic}
			})
		}},
		{"updateif-write", func() {
			m.UpdateIf(11, func(old pairVal, ok bool) (pairVal, bool) {
				na := old.a + 1
				return pairVal{na, na * pairMagic}, true
			})
		}},
		{"updateif-noop", func() {
			m.UpdateIf(13, func(old pairVal, ok bool) (pairVal, bool) {
				return old, false
			})
		}},
		// Declining on an absent key is a plain probe: no slot claim.
		{"updateif-noop-absent", func() {
			m.UpdateIf(1<<20, func(old pairVal, ok bool) (pairVal, bool) {
				return old, false
			})
		}},
		{"load", func() { m.Load(15) }},
		{"delete-absent", func() { m.Delete(1 << 20) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(100, c.op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// TestInlineGrowth fills a tiny table far past several growths and checks
// every key, including interleaved deletes (tombstones must not resurrect
// across migrations).
func TestInlineGrowth(t *testing.T) {
	m := newInlineInt(2)
	const n = 5000
	for i := 0; i < n; i++ {
		m.Store(i, i*3)
		if i%7 == 0 {
			m.Delete(i / 2)
		}
	}
	// A delete of k/2 at step i only sticks if k/2 was not re-stored later;
	// replay sequentially for the expected state.
	want := map[int]int{}
	for i := 0; i < n; i++ {
		want[i] = i * 3
		if i%7 == 0 {
			delete(want, i/2)
		}
	}
	if got := m.Len(); got != len(want) {
		t.Fatalf("Len=%d want %d", got, len(want))
	}
	for k, w := range want {
		if v, ok := m.Load(k); !ok || v != w {
			t.Fatalf("key %d = (%d,%v), want %d", k, v, ok, w)
		}
	}
}

// barrier is a reusable all-arrive phase barrier for p participants.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	p     int
	count int
	phase int
}

func newBarrier(p int) *barrier {
	b := &barrier{p: p}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all p participants have arrived, then releases them
// together into the next phase.
func (b *barrier) await() {
	b.mu.Lock()
	phase := b.phase
	b.count++
	if b.count == b.p {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
	} else {
		for b.phase == phase {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// TestInlineStressPhases is a deterministic -race stress: GOMAXPROCS
// goroutines hammer one table through a phase barrier. Each phase's
// workload is chosen so the final contents are computable in closed form
// regardless of interleaving, so the test asserts exact state, not just
// absence of crashes. The table starts tiny so phase 1 forces several
// cooperative migrations under full contention.
func TestInlineStressPhases(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4
	}
	perG, incs, shared := 2000, 500, 97
	if testing.Short() {
		perG, incs = 400, 100
	}
	m := newInlineInt(2)
	bar := newBarrier(p)
	var wg sync.WaitGroup
	errs := make(chan string, p)
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Phase 1: disjoint inserts (goroutine g owns keys g*perG..).
			// All goroutines also increment a small shared counter space,
			// so growth migrations race with both claims and updates.
			for i := 0; i < perG; i++ {
				k := g*perG + i
				m.Store(k, k+1)
			}
			for i := 0; i < incs; i++ {
				m.Update(1_000_000+i%shared, func(old int, ok bool) int { return old + 1 })
			}
			bar.await()
			// Phase 2: pure reads of phase 1's state, concurrent across
			// all goroutines; any torn or lost write is visible here.
			for i := 0; i < perG; i++ {
				k := ((g+1)%p)*perG + i // read a neighbor's keys
				if v, ok := m.Load(k); !ok || v != k+1 {
					errs <- "phase2 missing or wrong key"
					break
				}
			}
			bar.await()
			// Phase 3: each goroutine deletes the odd keys it owns and
			// doubles its even keys.
			for i := 0; i < perG; i++ {
				k := g*perG + i
				if k%2 == 1 {
					m.Delete(k)
				} else {
					m.Update(k, func(old int, ok bool) int { return old * 2 })
				}
			}
			bar.await()
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Exact final contents: even keys doubled, odd keys gone, shared
	// counters at p*incs/shared increments each.
	n := p * perG
	wantLen := n/2 + shared
	if got := m.Len(); got != wantLen {
		t.Fatalf("Len=%d want %d", got, wantLen)
	}
	for k := 0; k < n; k++ {
		v, ok := m.Load(k)
		if k%2 == 1 {
			if ok {
				t.Fatalf("deleted key %d still present (=%d)", k, v)
			}
			continue
		}
		if !ok || v != (k+1)*2 {
			t.Fatalf("key %d = (%d,%v), want %d", k, v, ok, (k+1)*2)
		}
	}
	total := 0
	for i := 0; i < shared; i++ {
		v, ok := m.Load(1_000_000 + i)
		if !ok {
			t.Fatalf("shared counter %d missing", i)
		}
		total += v
	}
	if total != p*incs {
		t.Fatalf("shared counters lost increments: total=%d want %d", total, p*incs)
	}
}

func TestLockFreeGrowth(t *testing.T) {
	// Insert far past the initial capacity from many goroutines; every key
	// must survive the migrations.
	m := newInlineInt(1)
	const n = 50000
	parallel.For(0, n, func(i int) { m.Store(i, i+1) })
	if m.Len() != n {
		t.Fatalf("len=%d want %d", m.Len(), n)
	}
	parallel.For(0, n, func(i int) {
		if v, ok := m.Load(i); !ok || v != i+1 {
			t.Errorf("key %d = (%d,%v)", i, v, ok)
		}
	})
}

// TestInlineFullTableDescends: a root table can fill up completely
// before its migration poisons any slot; a writer that finds no room then
// claims its key in the successor. Reads and deletes probing the full
// root must follow it there instead of reporting the key absent.
func TestInlineFullTableDescends(t *testing.T) {
	h := newInlineInt(1)
	root := h.cur.Load()
	for i := range root.slots { // every slot full, none poisoned
		sl := &root.slots[i]
		sl.key = 1000 + i
		sl.meta.Store(imHas)
		sl.state.Store(slotFull)
	}
	next := newInTable[int](16)
	root.next.Store(next)
	h.installFrozen(next, 7, 70, 0) // the key lives only in the successor
	if v, ok := h.Load(7); !ok || v != 70 {
		t.Fatalf("Load(7) through a full root = (%d, %v), want (70, true)", v, ok)
	}
	h.Delete(7)
	if v, ok := h.Load(7); ok {
		t.Fatalf("Load(7) after Delete through a full root = %d, want absent", v)
	}
}

func TestLockFreePriorityWrite(t *testing.T) {
	// Store-if-absent through UpdateIf is a priority write: exactly one
	// writer per key wins and everyone observes the winner.
	m := newInlineInt(8)
	const n, keys = 20000, 64
	won := make([]atomic.Int64, keys)
	observed := make([]int64, n)
	parallel.For(0, n, func(i int) {
		k := i % keys
		m.UpdateIf(k, func(old int, ok bool) (int, bool) {
			if ok {
				return old, false
			}
			return i, true
		})
		v, _ := m.Load(k)
		if v == i {
			won[k].Add(1)
		}
		observed[i] = int64(v)
	})
	for k := range won {
		if w := won[k].Load(); w != 1 {
			t.Fatalf("key %d won %d times", k, w)
		}
	}
	for i := 0; i < n; i++ {
		k := i % keys
		v, _ := m.Load(k)
		if observed[i] != int64(v) {
			t.Fatalf("op %d observed %d, final %d", i, observed[i], v)
		}
	}
}
