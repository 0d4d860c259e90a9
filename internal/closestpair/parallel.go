package closestpair

import (
	"math"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/hashtable"
	"repro/internal/parallel"
)

// cellChains is the concurrent cell store parGrid and gridD share. The
// lock-free table maps each occupied cell to the point inserted into it
// last (its head), and next[i] links point i to the point inserted into
// the same cell before it, -1 ending the chain; a cell's points are thus
// the chain from its head, newest first.
//
// Inserts and scans never overlap — a parallel.ForGrain barrier separates
// them — so a scan sees every chain complete. Within an insert phase the
// head's seqlock publish orders the next[i] write before any reader can
// observe head i; should the table ever run the callback more than once,
// its last write wins.
type cellChains struct {
	heads *hashtable.LockFreeInline[uint64, int32]
	next  []int32
}

// newCellChains returns an empty store over the caller's per-point next
// array, sized for the given number of cells; cooperative migration grows
// the head table past that. next is reused across rebuilds: every insert
// rewrites its own entry.
func newCellChains(next []int32, cells int) cellChains {
	// Identity hasher: the table applies its own finalizing Mix64 to the
	// cell keys.
	return cellChains{
		heads: hashtable.NewLockFreeInline[uint64, int32](cells,
			func(k uint64) uint64 { return k }, hashtable.EncInt32, hashtable.DecInt32),
		next: next,
	}
}

// insert pushes point i onto the chain of the cell with key k.
func (c cellChains) insert(k uint64, i int32) {
	c.heads.Update(k, func(old int32, ok bool) int32 {
		if !ok {
			old = -1
		}
		c.next[i] = old
		return i
	})
}

// head returns the newest point in the cell with key k, or -1 if empty.
func (c cellChains) head(k uint64) int32 {
	if j, ok := c.heads.Load(k); ok {
		return j
	}
	return -1
}

// parGrid is the concurrent grid used by ParIncremental: whole prefixes
// are inserted into its cell chains in parallel and then checked
// concurrently.
type parGrid struct {
	r float64
	cellChains
}

func newParGrid(r float64, next []int32, cells int) *parGrid {
	return &parGrid{r: r, cellChains: newCellChains(next, cells)}
}

func (g *parGrid) insert(pts []geom.Point, i int32) {
	qx, qy := quantize(pts[i], g.r)
	g.cellChains.insert(cellKey(qx, qy), i)
}

// nearestBefore returns the minimum distance from pts[i] to 3x3-neighborhood
// points with index strictly less than i, and the argmin (-1 if none).
// Equidistant candidates resolve to the smallest index, as in every scan
// of this package, so the answer does not depend on chain order.
func (g *parGrid) nearestBefore(pts []geom.Point, i int32, checks *int64) (float64, int32) {
	qx, qy := quantize(pts[i], g.r)
	best, bestJ := math.Inf(1), int32(-1)
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for j := g.head(cellKey(qx+dx, qy+dy)); j >= 0; j = g.next[j] {
				if j >= i {
					continue
				}
				*checks++
				if d := geom.Dist(pts[i], pts[j]); d < best || d == best && j < bestJ {
					best, bestJ = d, j
				}
			}
		}
	}
	return best, bestJ
}

// ParIncremental runs the Type 2 parallel algorithm (Theorem 5.2).
//
// Iterations are processed in doubling prefixes. Unlike linear programming,
// where an iteration's special check depends only on the current optimum,
// the closest-pair check for point k depends on all points before k, so the
// sub-round (a) bulk-inserts the whole remaining prefix into the concurrent
// grid in parallel, (b) checks every prefix point against its 3x3
// neighborhood restricted to smaller indices — exactly the sequential
// check — and (c) takes the earliest special iteration with a parallel min
// reduction, shrinks r, and rebuilds the grid. The result and the sequence
// of special iterations are identical to the sequential algorithm's.
func ParIncremental(pts []geom.Point) (Result, Stats) {
	n := len(pts)
	if n < 2 {
		panic("closestpair: need at least two points")
	}
	var st Stats
	var checks atomic.Int64
	res := Result{I: 0, J: 1, Dist: geom.Dist(pts[0], pts[1])}
	checks.Add(1)
	st.Special++ // iteration 1 defines r, as in the sequential count
	// One chain array serves every grid of the solve. Each table is sized
	// for what it will hold: the first two points, then after a special at
	// l the prefix [0, l] plus room to grow (specials come early, with
	// probability 2/i, so most rebuilds are small).
	next := make([]int32, n)
	g := newParGrid(res.Dist, next, 4)
	g.insert(pts, 0)
	g.insert(pts, 1)

	st.CellProbes += 2
	rebuild := func(upto int) {
		g = newParGrid(res.Dist, next, 2*(upto+1))
		// Inserts are cheap and uniform: grain 128 — claim traffic is
		// lane-local on the stealing pool, so half the old 256 grain buys
		// rebalance headroom for hot grid cells at no shared-counter cost.
		parallel.ForGrain(0, upto+1, 128, func(k int) { g.insert(pts, int32(k)) })
		st.CellProbes += int64(upto + 1)
	}

	j := 2
	for hi := 4; j < n; hi *= 2 {
		if hi > n {
			hi = n
		}
		st.Rounds++
		for j < hi {
			st.SubRounds++
			// (a) Insert the remaining prefix in parallel.
			parallel.ForGrain(j, hi, 128, func(k int) { g.insert(pts, int32(k)) })
			st.CellProbes += int64(hi-j) * 10 // insert + 3x3 check per point
			// (b)+(c) Earliest iteration whose true nearest-earlier
			// distance beats r.
			dist := make([]float64, hi-j)
			arg := make([]int32, hi-j)
			blockChecks := make([]int64, hi-j)
			// Grid-probe counts are skewed by local density: grain 32 lets
			// thieves split the crowded cells' ranges finer.
			parallel.ForGrain(j, hi, 32, func(k int) {
				d, a := g.nearestBefore(pts, int32(k), &blockChecks[k-j])
				dist[k-j], arg[k-j] = d, a
			})
			checks.Add(parallel.Sum(blockChecks))
			// Reserve-style earliest-true search: the distances are already
			// materialized, so the predicate is a cheap array read and
			// pruning skips comparisons that cannot win.
			l, ok := parallel.ReduceMinIndex(j, hi, 0,
				func(k int) bool { return dist[k-j] < res.Dist })
			if !ok {
				j = hi
				break
			}
			st.Special++
			res = Result{I: int(arg[l-j]), J: l, Dist: dist[l-j]}
			rebuild(l)
			j = l + 1
		}
	}
	st.DistChecks = checks.Load()
	if res.I > res.J {
		res.I, res.J = res.J, res.I
	}
	return res, st
}
