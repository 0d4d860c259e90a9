package graph

import (
	"slices"
	"sync/atomic"

	"repro/internal/parallel"
)

// ParReachFrom is the parallel counterpart of ReachFrom: a
// frontier-synchronous reachability search (parallel BFS) from src,
// restricted to vertices with in(u) true, in the forward or backward
// direction. It returns the reached vertices (src first, then round by
// round in increasing vertex order) and the number of edges scanned.
//
// This realizes the paper's reachability black box with depth
// D_R = O(diameter) instead of the sequential search's O(reached): the
// early rounds of the Type 3 SCC algorithm have few concurrent pivots, so
// without intra-search parallelism the first round would be fully
// sequential.
func ParReachFrom(g *Graph, src int, forward bool, in func(u int) bool) (visited []int32, edgesScanned int64) {
	visited, edgesScanned, _ = ParReachFromCancel(g, src, forward, in, nil)
	return visited, edgesScanned
}

// ParReachFromCancel is ParReachFrom with cooperative cancellation: the
// token is observed at every frontier-round boundary (and, through
// BlocksNCancel, at chunk boundaries inside a round's expansion). On
// cancellation it returns parallel.ErrCanceled together with the visited
// prefix discovered by the completed frontier rounds — callers that need
// an all-or-nothing answer must discard it. A nil token is the plain
// search.
func ParReachFromCancel(g *Graph, src int, forward bool, in func(u int) bool, c *parallel.Canceler) (visited []int32, edgesScanned int64, err error) {
	if !in(src) {
		return nil, 0, c.Err()
	}
	if !forward {
		g.EnsureReverse()
	}
	claimed := make([]atomic.Bool, g.N)
	claimed[src].Store(true)
	frontier := []int32{int32(src)}
	visited = append(visited, int32(src))
	var edges atomic.Int64
	for len(frontier) > 0 {
		// Expand every frontier vertex in parallel; claim new vertices
		// with a CAS so each is visited exactly once. Grain 8 keeps
		// chunks small because per-vertex cost is the (skewed) degree;
		// thieves split the ranges holding the heavy vertices, and the
		// finer grain costs only lane-local claims on the stealing pool.
		// Which block wins a vertex's claim depends on the schedule, but
		// the set of vertices the round claims does not, so sorting the
		// next frontier makes the visit order deterministic.
		nb := parallel.NumBlocks(len(frontier), 8)
		nexts := make([][]int32, nb)
		if err := parallel.BlocksNCancel(0, len(frontier), nb, c, func(bi, lo, hi int) {
			var local []int32
			var scanned int64
			for k := lo; k < hi; k++ {
				u := int(frontier[k])
				for _, vi := range g.Neighbors(u, forward) {
					scanned++
					v := int(vi)
					if claimed[v].Load() || !in(v) {
						continue
					}
					if claimed[v].CompareAndSwap(false, true) {
						local = append(local, vi)
					}
				}
			}
			nexts[bi] = local
			edges.Add(scanned)
		}); err != nil {
			// The round expanded an arbitrary subset of its blocks; the
			// visited prefix still holds only fully discovered rounds.
			return visited, edges.Load(), err
		}
		frontier = frontier[:0]
		for _, l := range nexts {
			frontier = append(frontier, l...)
		}
		slices.Sort(frontier)
		visited = append(visited, frontier...)
	}
	return visited, edges.Load(), c.Err()
}
