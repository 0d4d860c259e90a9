// Package parallel provides the shared-memory parallel primitives that the
// rest of the repository builds on: grained parallel loops, reductions,
// prefix sums, compaction (pack), and priority-write cells.
//
// The primitives mirror the CRCW PRAM operations assumed by Blelloch, Gu,
// Shun and Sun ("Parallelism in Randomized Incremental Algorithms", SPAA
// 2016): a W-work D-depth PRAM algorithm runs here in O(W/P + D') time on P
// cores, where D' inflates the paper's O(1) or O(log* n) sub-steps to
// O(log n) tree reductions. The quantities the paper actually bounds —
// dependence depth, operation counts — are measured by explicit counters in
// the algorithm packages and are unaffected by this substitution.
//
// All loops run on a persistent pool of at most GOMAXPROCS worker
// goroutines (see pool.go and DESIGN.md) with work-stealing range
// splitting: each participant owns a contiguous per-lane claim range,
// consumes it from the front in geometrically shrinking batches, and
// steals the back half of another lane's range when its own runs dry — so
// uniform loops cost a handful of lane-local atomics per worker, skewed
// bodies load-balance by stealing, and no goroutines are spawned per call.
// All loops are deterministic in their results (though not in execution
// order) and safe for nested use; an inner loop on a busy worker is
// drained by that worker itself and helped by any idle ones, so nesting
// cannot deadlock. A panic in a loop body is re-raised, with its original
// value, on the goroutine that invoked the loop.
package parallel

import "runtime"

// MaxProcs returns the degree of parallelism used by the primitives in this
// package. It is GOMAXPROCS at call time, floored at 1.
func MaxProcs() int {
	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	return p
}

// DefaultGrain is the grain used when the caller does not specify one: no
// loop splits into more than ceil(n/DefaultGrain) chunks, so chunks hold at
// least ~DefaultGrain/2 iterations (the even split may undershoot the grain
// by up to half). It balances claim overhead against load balance for loop
// bodies in the 10ns–1µs range.
const DefaultGrain = 512

// chunksFor picks the number of chunks for an n-iteration loop whose chunks
// must hold at least min iterations (DefaultGrain if min <= 0):
//
//	min(chunksPerWorker·P, ceil(n/min))
//
// Small loops get ceil(n/min) chunks — so n just above the grain still
// splits in two instead of silently serializing as the old grain-based
// formula did — and large loops are capped at chunksPerWorker chunks per
// worker, which the stealing scheduler rebalances by splitting ranges at
// claim time.
func chunksFor(n, min int) int {
	if n <= 0 {
		return 0
	}
	if min <= 0 {
		min = DefaultGrain
	}
	nb := (n + min - 1) / min
	if limit := chunksPerWorker * MaxProcs(); nb > limit {
		nb = limit
	}
	return nb
}

// chunkBounds returns the half-open index range of chunk b when [lo, hi) is
// split into nb near-equal contiguous chunks (sizes differ by at most one).
func chunkBounds(lo, hi, b, nb int) (int, int) {
	n := int64(hi - lo)
	s := lo + int(int64(b)*n/int64(nb))
	e := lo + int(int64(b+1)*n/int64(nb))
	return s, e
}

// For runs body(i) for every i in [lo, hi) with automatic grain selection.
// It blocks until all iterations complete. Iterations must be independent.
func For(lo, hi int, body func(i int)) { ForGrain(lo, hi, 0, body) }

// ForGrain is For with an explicit grain: the loop splits into at most
// ceil((hi-lo)/grain) chunks of near-equal size, so each chunk holds at
// least ~grain/2 consecutive iterations (the even split may undershoot the
// grain by up to half). grain <= 0 selects DefaultGrain. A grain of 1 is
// fine for heavy loop bodies: chunks are claimed from the pool, not
// spawned, so the per-chunk cost is an atomic increment rather than a
// goroutine.
func ForGrain(lo, hi, grain int, body func(i int)) { ForGrainCancel(lo, hi, grain, nil, body) }

// Blocks runs body(lo', hi') over a partition of [lo, hi) into at most
// ceil((hi-lo)/grain) contiguous near-equal blocks (each at least ~grain/2
// iterations). It is the bulk form of ForGrain for bodies that want to
// amortize per-chunk setup (local buffers, counters). The body is invoked
// exactly NumBlocks(hi-lo, grain) times, even on a single-core run; when
// per-block results are allocated from NumBlocks up front, use BlocksN
// with that count so the partition cannot shift under a concurrent
// GOMAXPROCS change.
func Blocks(lo, hi, grain int, body func(lo, hi int)) {
	BlocksNCancel(lo, hi, NumBlocks(hi-lo, grain), nil, func(_, s, e int) { body(s, e) })
}

// BlocksN runs body(b, lo', hi') over [lo, hi) split into exactly nb
// near-equal blocks, b in [0, nb); nb is clamped to [1, hi-lo]. Use it with
// a count captured from NumBlocks when per-block outputs are allocated
// before the loop: unlike Blocks, the partition is pinned by the caller,
// so it cannot shift if GOMAXPROCS changes between the allocation and the
// loop.
func BlocksN(lo, hi, nb int, body func(b, lo, hi int)) { BlocksNCancel(lo, hi, nb, nil, body) }

// Do runs the given functions concurrently and waits for all of them.
// It is the fork-join "par" combinator. The caller participates, so Do is
// safe at any nesting depth; the first panic among the functions is
// re-raised on the caller.
func Do(fns ...func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	runLoop(len(fns), nil, func(c int) { fns[c]() })
}

// NumBlocks reports how many blocks Blocks creates for n items with the
// given grain. Exposed for preallocating per-block result slices.
func NumBlocks(n, grain int) int {
	return chunksFor(n, grain)
}
