package delaunay

import (
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// Round-atomic cancellation and crash recovery for the parallel round
// engine. A round either commits in full or leaves no trace: stepCancel
// observes the token (and any injected fault) at phase boundaries, and
// when a round is abandoned — by cancellation or by a panic escaping a
// phase — the engine rolls the store, the face map, the encroacher
// arenas, and the stats back to the previous round's boundary. The
// candidate list is only swapped at commit, so a retried round re-derives
// the identical fire set (activation is a pure function of the rolled-back
// state) and produces the identical triangulation: cancellation and
// recovery never perturb determinism, they only decide how many rounds
// run.
//
// Rollback is lazy for panics: step arms a dirty flag before the first
// mutation and clears it at commit; a panic propagates with the flag
// still set, and the next use of the engine repairs state first. This
// avoids a deferred closure on the hot path (the defer would be a
// per-round allocation and a capturing closure inside a //ridt:noalloc
// body). Cancellation repairs eagerly, since stepCancel still owns
// control.
//
// What rollback must undo, by phase:
//
//   - Activation writes only arena scratch — nothing to undo; the round
//     counter and stats are untouched until the engine arms.
//   - Phase A advances the per-block encroacher arenas and the
//     predicate/stat counters: rewind each arena to its armed (ci, pos)
//     mark and restore the stats/pred snapshots. Staged triangle data is
//     scratch.
//   - Phase B appends the staged triangles and touches the face map:
//     truncate the triangle log to its armed length and un-touch the
//     faces fire by fire — conditionally, because a canceled round stops
//     with an arbitrary subset of fires installed. For fire k with new
//     triangle id: the ripped face's t-side is restored to f.t if it was
//     re-pointed to id; each of the two tent faces is deleted if this
//     attach created it (t0 == id) or has its t1 reset to NoTri if this
//     attach joined an existing entry. Un-processed fires match nothing
//     and no-op.
//
// Dedup stamps ((round, claim) pairs) written by an abandoned attempt are
// NOT rolled back, and need not be: the retry re-runs the identical fire
// set under the same round number, every retried touch rewrites its
// face's stamp through the same min-claim update, and the stale claims
// are a subset of the retry's own claim values — the min over the same
// set is unchanged. Stamps on faces the retry never touches cannot exist
// (identical fire set ⇒ identical touched faces). Deleted tent faces are
// value-level tombstones; the retry's attach re-creates them with fresh
// stamps.

// i32mark is a saved (chunk, offset) cursor of an i32arena.
type i32mark struct{ ci, pos int }

// rollbackState is the armed snapshot that makes one round revocable.
type rollbackState struct {
	dirty   bool // a round's mutation section is (or was) in flight
	phaseB  bool // the triangle append / face-map section was entered
	trisLen int  // triangle-log length at arm time
	m       int  // fires staged this round
	stats   Stats
	pred    geom.PredicateStats
	marks   []i32mark // encroacher-arena cursors at arm time
}

// arm snapshots everything the round may mutate. Called once per round,
// before the round counter moves.
func (e *roundEngine) arm(m int) {
	rb := &e.rb
	rb.dirty, rb.phaseB = true, false
	rb.trisLen = len(e.s.tris)
	rb.m = m
	rb.stats = e.s.stats
	rb.pred = *e.s.pred
	rb.marks = growSlice(rb.marks, len(e.ar.earenas))
	for i, a := range e.ar.earenas {
		rb.marks[i] = i32mark{a.ci, a.pos}
	}
}

// rollback repairs the engine to the state armed by the current round.
// Idempotent (a clean engine is untouched) and single-threaded: it runs
// only after the round's parallel loops have returned or panicked out.
func (e *roundEngine) rollback() {
	rb := &e.rb
	if !rb.dirty {
		return
	}
	s, ar := e.s, e.ar
	if rb.phaseB {
		base := int32(rb.trisLen)
		fires := ar.fires[:rb.m]
		for k := range fires {
			f := fires[k]
			id := base + int32(k)
			// Ripped face: this fire's Phase B update re-pointed its t side
			// at the new triangle; point it back. An entry not referencing
			// id means this fire never ran — leave it alone.
			if ent, ok := e.faces.Load(f.fk); ok {
				if ent.t0 == id {
					ent.t0 = f.t
					e.faces.Store(f.fk, ent)
				} else if ent.t1 == id {
					ent.t1 = f.t
					e.faces.Store(f.fk, ent)
				}
			}
			// Tent faces: delete what this attach created, detach what it
			// joined. The other side's fire (if any) erases its own mark;
			// whichever order the loop visits them, the key ends absent or
			// exactly as it was before the round.
			v := ar.newTris[k].V
			a, b := faceEnds(f.fk)
			apex := v[0] + v[1] + v[2] - a - b
			for _, nf := range [2]uint64{faceKey(a, apex), faceKey(b, apex)} {
				ent, ok := e.faces.Load(nf)
				if !ok {
					continue
				}
				if ent.t0 == id {
					e.faces.Delete(nf)
				} else if ent.t1 == id {
					ent.t1 = NoTri
					e.faces.Store(nf, ent)
				}
			}
		}
	}
	s.tris = s.tris[:rb.trisLen]
	s.depth = s.depth[:rb.trisLen]
	s.stats = rb.stats
	*s.pred = rb.pred
	for i, a := range ar.earenas {
		if i < len(rb.marks) {
			a.ci, a.pos = rb.marks[i].ci, rb.marks[i].pos
		} else {
			// Created during the abandoned round: nothing committed yet.
			a.ci, a.pos = 0, 0
		}
	}
	e.round--
	rb.dirty = false
}

// stepCancel runs one round unless c cancels first; see step for the
// phase structure. It reports whether more rounds remain, and ErrCanceled
// when the token was canceled — in which case the engine has been rolled
// back to the last committed round and may be resumed (same or different
// token) or abandoned. A panic escaping a phase (injected or otherwise)
// leaves the engine dirty; the next stepCancel repairs it before doing
// anything else.
//
// Boundary stages passed to a roundEngine's boundaryHook and matching the
// DelaunayPhase fault-site hit points: the top of a round (nothing armed),
// after Phase A (arenas advanced, rollback armed), and after Phase B (face
// map touched).
const (
	stageRoundTop = iota
	stagePostA
	stagePostB
)

//ridt:noalloc
func (e *roundEngine) stepCancel(c *parallel.Canceler) (bool, error) {
	if e.rb.dirty {
		e.rollback()
	}
	if c.Canceled() {
		return false, parallel.ErrCanceled
	}
	if fault.Enabled {
		fault.Inject(fault.DelaunayPhase) // round top: nothing armed yet
	}
	if e.boundaryHook != nil {
		e.boundaryHook(stageRoundTop)
	}
	s, ar, faces := e.s, e.ar, e.faces

	// Activation (scratch-only: safe to discard without rollback).
	nc := len(e.cand)
	ar.evalF = growSlice(ar.evalF, nc)
	ar.evalOK = growSlice(ar.evalOK, nc)
	cand, evalF, evalOK := e.cand, ar.evalF, ar.evalOK
	//ridtvet:ignore noalloc one activation closure per round, O(1) against O(m) work
	parallel.Blocks(0, nc, activationGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			evalOK[i] = false
			ent, ok := faces.Load(cand[i])
			if !ok {
				continue
			}
			if ent.t1 == NoTri && !s.isBoundingEdge(cand[i]) {
				continue // waiting for the second incident triangle
			}
			m0, m1 := s.minE(ent.t0), s.minE(ent.t1)
			switch {
			case m0 < m1:
				evalF[i] = fire{cand[i], ent.t0, ent.t1}
				evalOK[i] = true
			case m1 < m0:
				evalF[i] = fire{cand[i], ent.t1, ent.t0}
				evalOK[i] = true
			}
		}
	})
	ar.fires, ar.counts = parallel.PackInto(ar.fires, evalF,
		//ridtvet:ignore noalloc one pack predicate per round, O(1) against O(m) work
		func(i int) bool { return evalOK[i] }, ar.counts)
	fires := ar.fires
	m := len(fires)
	if m == 0 {
		return false, c.Err()
	}
	if c.Canceled() {
		return false, parallel.ErrCanceled
	}

	// Mutation section: arm the rollback snapshot, then move the round.
	e.arm(m)
	e.round++
	round := e.round
	s.stats.Rounds++

	// Phase A (parallel, read-only on shared state; advances the arenas).
	nb := parallel.NumBlocks(m, 1)
	ar.newTris = growSlice(ar.newTris, m)
	ar.newDepth = growSlice(ar.newDepth, m)
	ar.preds = growSlice(ar.preds, nb)
	for i := range ar.preds {
		ar.preds[i] = geom.PredicateStats{}
	}
	newTris, newDepth, preds := ar.newTris, ar.newDepth, ar.preds
	earenas := ar.eArenas(nb)
	var tests atomic.Int64
	//ridtvet:ignore noalloc one Phase A closure per round, O(1) against O(m) work
	parallel.BlocksNCancel(0, m, nb, c, func(bi, lo, hi int) {
		pred := &preds[bi]
		ea := earenas[bi]
		var local int64
		for k := lo; k < hi; k++ {
			f := fires[k]
			v := s.minE(f.t)
			need := len(s.tris[f.t].E)
			if f.to != NoTri {
				need += len(s.tris[f.to].E)
			}
			buf := ea.take(need)
			tri, tc := s.newTriData(f.to, f.fk, f.t, v, pred, buf)
			ea.commit(len(tri.E))
			local += tc
			newTris[k] = tri
			d := s.depth[f.t] + 1
			if f.to != NoTri && s.depth[f.to]+1 > d {
				d = s.depth[f.to] + 1
			}
			newDepth[k] = d
		}
		tests.Add(local)
	})
	s.stats.InCircleTests += tests.Load()
	for i := range preds {
		s.pred.Merge(preds[i])
	}
	if fault.Enabled {
		fault.Inject(fault.DelaunayPhase) // post-A: arenas advanced, armed
	}
	if e.boundaryHook != nil {
		e.boundaryHook(stagePostA)
	}
	if c.Canceled() {
		e.rollback()
		return false, parallel.ErrCanceled
	}

	// Phase B: the triangle append and the face-map installs.
	e.rb.phaseB = true
	base := int32(len(s.tris))
	//ridtvet:ignore noalloc the triangle log is reserved to its final size in newRoundEngine; the append almost never regrows
	s.tris = append(s.tris, newTris...)
	//ridtvet:ignore noalloc reserved alongside the triangle log in newRoundEngine
	s.depth = append(s.depth, newDepth...)
	s.stats.TrianglesCreated += int64(m)

	ar.dense = growSlice(ar.dense, 3*m)
	dense := ar.dense
	//ridtvet:ignore noalloc one Phase B closure per round, O(1) against O(m) work
	parallel.BlocksNCancel(0, m, nb, c, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			f := fires[k]
			id := base + int32(k)
			k32 := int32(k)
			v := newTris[k].V
			// The ripped face now borders the new triangle instead of t.
			// It fired, so it already has both triangles and cannot be
			// touched as a new face this round: this fire is its only
			// toucher and wins its stamp outright.
			//ridtvet:ignore noalloc the closure does not escape Update and stays on the stack (round allocation pin)
			faces.Update(f.fk, func(old faceEntry, ok bool) faceEntry {
				if old.t0 == f.t {
					old.t0 = id
				} else {
					old.t1 = id
				}
				old.round, old.claim = round, k32
				return old
			})
			dense[3*k] = f.fk
			// Register the two new faces of t'. A new face may be touched
			// by the fire on its other side in the same round (created
			// there, attached here, in either order) — the claim-min stamp
			// picks the winner deterministically.
			a, b := faceEnds(f.fk)
			apex := v[0] + v[1] + v[2] - a - b
			nf0, nf1 := faceKey(a, apex), faceKey(b, apex)
			dense[3*k+1], dense[3*k+2] = nf0, nf1
			attachNewFace(faces, nf0, id, round, k32)
			attachNewFace(faces, nf1, id, round, k32)
		}
	})
	if fault.Enabled {
		fault.Inject(fault.DelaunayPhase) // post-B: face map touched, armed
	}
	if e.boundaryHook != nil {
		e.boundaryHook(stagePostB)
	}
	if c.Canceled() {
		e.rollback()
		return false, parallel.ErrCanceled
	}

	// Emission: keep exactly each touched face's winning slot. The flag
	// pass linearizes after Phase B's barrier, so every load observes the
	// face's final (round, claim) stamp for this round.
	ar.keep = growSlice(ar.keep, 3*m)
	keep := ar.keep
	//ridtvet:ignore noalloc one emission closure per round, O(1) against O(m) work
	parallel.Blocks(0, 3*m, emissionGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ent, _ := faces.Load(dense[i])
			keep[i] = ent.round == round && ent.claim == int32(i/3)
		}
	})
	next, counts := parallel.PackInto(ar.cand, dense,
		//ridtvet:ignore noalloc one pack predicate per round, O(1) against O(m) work
		func(i int) bool { return keep[i] }, ar.counts)
	ar.counts = counts
	ar.cand = e.cand // recycle the old candidate buffer
	e.cand = next
	e.rb.dirty = false // commit: the round is final
	return true, nil
}

// ParTriangulateCancel is ParTriangulate with cooperative cancellation
// observed at round phase boundaries. On cancellation it returns
// parallel.ErrCanceled and a nil mesh: rounds are atomic, so the engine's
// internal state was a valid last-committed-round triangulation, but a
// partial triangulation is not a meaningful output. Deadline-bound
// callers wanting the result must re-run without the token; the
// determinism contract guarantees the identical mesh.
func ParTriangulateCancel(pts []geom.Point, c *parallel.Canceler) (*Mesh, error) {
	e := newRoundEngine(pts)
	for {
		more, err := e.stepCancel(c)
		if err != nil {
			return nil, err
		}
		if !more {
			return e.s.finish(), nil
		}
	}
}
