package main

import (
	"fmt"
	"time"

	"repro/internal/closestpair"
	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/seb"
)

// solver is one Type 2 algorithm over the run's instances: its parallel
// (reserve/commit) and sequential entry points, the reference results,
// and the mean solve time of each pass.
type solver[R comparable, S any] struct {
	name string
	par  func(i int) (R, S)
	seq  func(i int) R
	ref  []R // the first pass's parallel results
	st   []S // the parallel solver's counters, per instance

	parT, seqT []float64 // mean seconds per solve, one per pass
}

func newSolver[R comparable, S any](name string, k int, par func(int) (R, S), seq func(int) R) *solver[R, S] {
	return &solver[R, S]{name: name, par: par, seq: seq, st: make([]S, k)}
}

// type2Solvers binds the three solvers to the run's instances.
type type2Solvers struct {
	cp  *solver[closestpair.Result, closestpair.Stats]
	seb *solver[geom.Disk, seb.Stats]
	lp  *solver[lp.Result, lp.Stats]
}

func newType2(in *inputs, k int) type2Solvers {
	return type2Solvers{
		cp: newSolver("cp", k, func(i int) (closestpair.Result, closestpair.Stats) {
			return closestpair.ParIncremental(in.cp[i])
		}, func(i int) closestpair.Result {
			r, _ := closestpair.Incremental(in.cp[i])
			return r
		}),
		seb: newSolver("seb", k, func(i int) (geom.Disk, seb.Stats) {
			return seb.ParIncremental(in.seb[i])
		}, func(i int) geom.Disk {
			d, _ := seb.Incremental(in.seb[i])
			return d
		}),
		lp: newSolver("lp", k, func(i int) (lp.Result, lp.Stats) {
			return lp.ParSolve(in.lp[i].cons, in.lp[i].cx, in.lp[i].cy)
		}, func(i int) lp.Result {
			r, _ := lp.Solve(in.lp[i].cons, in.lp[i].cx, in.lp[i].cy)
			return r
		}),
	}
}

// type2 solves every instance with each parallel solver at P=2 (and, in
// the traced run, with its sequential version at P=1). It returns the
// bytes the parallel solves allocated.
func (b *bench) type2(parent, run int64) uint64 {
	t := &b.t2
	return t.cp.solve(b, parent, run) + t.seb.solve(b, parent, run) + t.lp.solve(b, parent, run)
}

func (s *solver[R, S]) solve(b *bench, parent, run int64) uint64 {
	got := make([]R, len(s.st))
	alloc := b.batch(s.name+"_p2", parent, run, b.cfg.procs, &s.parT, func(i int) {
		got[i], s.st[i] = s.par(i)
	})
	s.check(b, s.name+" parallel", got)
	if b.cfg.trace {
		b.batch(s.name+"_seq", parent, run, 1, &s.seqT, func(i int) { got[i] = s.seq(i) })
		s.check(b, s.name+" sequential", got)
	}
	return alloc
}

// check counts one operation per instance: the first pass's results
// become the reference, and every later result must equal it.
func (s *solver[R, S]) check(b *bench, what string, got []R) {
	if s.ref == nil {
		s.ref = append([]R(nil), got...)
	}
	bad := int64(0)
	var first error
	for i := range got {
		if got[i] != s.ref[i] {
			bad++
			if first == nil {
				first = fmt.Errorf("instance %d: got %+v, want %+v", i, got[i], s.ref[i])
			}
		}
	}
	b.ops(what, int64(len(got)), bad, first)
}

// checkSeq is the untraced run's off-the-clock check: the parallel
// results must match the sequential solver's.
func (s *solver[R, S]) checkSeq(b *bench) {
	got := make([]R, len(s.st))
	for i := range got {
		got[i] = s.seq(i)
	}
	s.check(b, s.name+" sequential", got)
}

// batch runs solve(i) for every instance at GOMAXPROCS p, one span per
// solve, appends the mean time of one solve to out, and returns the bytes
// the solves allocated. The mean over all instances, not a per-solve
// sample, is what a pass records: one solve's time depends on where its
// random order puts the special iterations (the work per instance varies
// fourfold), so only the total over many instances is the same from one
// seed to the next.
func (b *bench) batch(name string, parent, run int64, p int, out *[]float64, solve func(i int)) uint64 {
	var sec float64
	alloc := b.measured(p, func() {
		for i := 0; i < b.cfg.t2K; i++ {
			sp := b.tr.begin(name, parent, run)
			t := time.Now()
			solve(i)
			sec += time.Since(t).Seconds()
			b.tr.end(sp)
		}
	})
	*out = append(*out, sec/float64(b.cfg.t2K))
	return alloc
}
