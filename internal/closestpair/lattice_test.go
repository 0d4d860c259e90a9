package closestpair

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Exactly equidistant inputs: on a lattice many candidate pairs tie at the
// closest distance, so the answer depends on how each scan breaks ties.
// Every scan picks the smallest index among equidistant candidates, which
// makes (I, J, Dist) independent of cell order, and so equal between the
// sequential and parallel runs.

// TestLatticeTieSeqMatchesPar is the smallest tie: point 2 is equally far
// from points 0 and 1, which share its grid cell, and the cell lists them
// oldest-first in the sequential grid but newest-first in the parallel one.
func TestLatticeTieSeqMatchesPar(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 9, Y: 9}, {X: 9, Y: 0}}
	want := Result{I: 0, J: 2, Dist: 9}
	seq, _ := Incremental(pts)
	par, _ := ParIncremental(pts)
	if seq != want || par != want {
		t.Fatalf("seq %+v par %+v, want %+v", seq, par, want)
	}
}

// TestLatticeSeqMatchesPar runs shuffled exact lattices (no jitter)
// through both planar algorithms.
func TestLatticeSeqMatchesPar(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		for inst := 0; inst < 32; inst++ {
			n := 1 << 10
			if inst%2 == 1 {
				n = 36 // a 6x6 lattice: ties decide most specials
			}
			pts := geom.GridJitter(r, n, 0)
			rng.ShuffleSlice(r, pts)
			seq, seqSt := Incremental(pts)
			par, parSt := ParIncremental(pts)
			if seq != par || seqSt.Special != parSt.Special {
				t.Fatalf("seed %d instance %d: seq %+v (%d specials) par %+v (%d specials)",
					seed, inst, seq, seqSt.Special, par, parSt.Special)
			}
			if want := BruteForce(pts); seq.Dist != want.Dist {
				t.Fatalf("seed %d instance %d: dist %g, brute force %g", seed, inst, seq.Dist, want.Dist)
			}
		}
	}
}

// latticeD returns the integer lattice {0..side-1}^d in shuffled order.
func latticeD(r *rng.RNG, side, d int) []PointD {
	n := 1
	for i := 0; i < d; i++ {
		n *= side
	}
	pts := make([]PointD, n)
	for i := range pts {
		p := make(PointD, d)
		for c, rest := 0, i; c < d; c, rest = c+1, rest/side {
			p[c] = float64(rest % side)
		}
		pts[i] = p
	}
	rng.ShuffleSlice(r, pts)
	return pts
}

// TestLatticeSeqMatchesParD is the d-dimensional counterpart on integer
// lattices at d = 2 and 3.
func TestLatticeSeqMatchesParD(t *testing.T) {
	for _, c := range []struct{ d, side int }{{2, 32}, {2, 6}, {3, 10}, {3, 4}} {
		for seed := uint64(1); seed <= 8; seed++ {
			pts := latticeD(rng.New(seed), c.side, c.d)
			seq, seqSt := IncrementalD(pts)
			par, parSt := ParIncrementalD(pts)
			if seq != par || seqSt.Special != parSt.Special {
				t.Fatalf("d=%d side=%d seed %d: seq %+v (%d specials) par %+v (%d specials)",
					c.d, c.side, seed, seq, seqSt.Special, par, parSt.Special)
			}
			if seq.Dist != 1 {
				t.Fatalf("d=%d side=%d seed %d: dist %g, want 1", c.d, c.side, seed, seq.Dist)
			}
		}
	}
}
