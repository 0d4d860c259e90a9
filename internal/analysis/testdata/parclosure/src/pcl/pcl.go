// Package pcl exercises parclosure on the loop primitives and the
// Type2Hooks contract.
package pcl

import (
	"core"
	"parallel"
)

func fill(dst []int64) {
	parallel.Blocks(0, len(dst), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = int64(i) // negative: index is range-derived
		}
	})
}

func total(xs []int64) int64 {
	var sum int64
	parallel.Blocks(0, len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want `writes captured "sum" from concurrent blocks`
		}
	})
	return sum
}

func histo(counts map[int]int, xs []int) {
	parallel.For(0, len(xs), func(i int) {
		counts[xs[i]]++ // want `writes captured map "counts"`
	})
}

func broadcast(slot []int64) {
	parallel.ForGrain(0, 100, 16, func(i int) {
		slot[0] = int64(i) // want `index that does not depend on the block range`
	})
}

func squares(dst []int64) {
	parallel.For(0, len(dst), func(i int) {
		dst[i] = int64(i * i) // negative: index is range-derived
	})
}

func shift(dst, src []int64) {
	parallel.ForGrain(1, len(dst), 16, func(i int) {
		dst[i] = src[i-1] // negative: index is range-derived
	})
}

func blockSums(sums, xs []int64) {
	parallel.BlocksN(0, len(xs), len(sums), func(b, lo, hi int) {
		for i := lo; i < hi; i++ {
			sums[b] += xs[i] // negative: block-derived index
		}
	})
}

func blockLast(last []int64, xs []int64) {
	parallel.BlocksN(0, len(xs), 4, func(b, lo, hi int) {
		last[0] = xs[hi-1] // want `index that does not depend on the block range`
	})
}

func positives(dst, xs []int64, counts []int) ([]int64, []int) {
	return parallel.PackInto(dst, xs, func(i int) bool {
		return xs[i] > 0 // negative: the predicate only reads
	}, counts)
}

func pack(dst, xs []int64, counts []int) ([]int64, []int) {
	kept := 0
	out, cnt := parallel.PackInto(dst, xs, func(i int) bool {
		kept++ // want `writes captured "kept" from concurrent blocks`
		return xs[i] > 0
	}, counts)
	_ = kept
	return out, cnt
}

func cancelTotal(xs []int64, c *parallel.Canceler) int64 {
	var sum int64
	parallel.BlocksNCancel(0, len(xs), 8, c, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want `writes captured "sum" from concurrent blocks`
		}
	})
	return sum
}

func cancelFill(dst []int64, c *parallel.Canceler) {
	parallel.ForGrainCancel(0, len(dst), 16, c, func(i int) {
		dst[i] = int64(i) // negative: index is range-derived
	})
}

func cancelBlocks(nexts [][]int64, c *parallel.Canceler) {
	parallel.BlocksNCancel(0, 100, len(nexts), c, func(b, lo, hi int) {
		nexts[b] = append(nexts[b], int64(lo)) // negative: block-derived index
	})
}

func cancelBroadcast(slot []int64, c *parallel.Canceler) {
	parallel.ForGrainCancel(0, 100, 16, c, func(i int) {
		slot[0] = int64(i) // want `index that does not depend on the block range`
	})
}

func hooks(executed []bool, specials []bool) core.Type2Hooks {
	seen := 0
	return core.Type2Hooks{
		IsSpecial: func(k int) bool {
			seen++ // want `IsSpecial is called concurrently and must not mutate shared state`
			return specials[k]
		},
		RunRegular: func(lo, hi int) {
			for k := lo; k < hi; k++ {
				executed[k] = true // negative: range-derived index
			}
		},
	}
}

func lateBind(h *core.Type2Hooks) {
	n := 0
	h.RunRegular = func(lo, hi int) {
		n += hi - lo // want `writes captured "n" from concurrent blocks`
	}
	_ = n
}
