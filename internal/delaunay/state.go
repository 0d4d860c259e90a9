package delaunay

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/hashtable"
)

// Checkpoint capture and restore for a live triangulation.
//
// A BuildState is everything the round engine needs to resume insertion
// from a committed round boundary and produce the byte-identical rest of
// the run: the published view's data (points, triangle log with
// encroacher lists, final-id watermark) plus the two pieces of engine
// state that are NOT derivable from the view alone —
//
//   - the candidate face list: the fire set of a round is a pure function
//     of (face map, E lists) over the candidates, but the fire ORDER — and
//     with it every later triangle id — follows candidate order, so the
//     determinism contract requires the exact list, not a reconstruction;
//   - the face map: which up-to-two alive triangles are incident to each
//     face of the current (half-built) triangulation. Aliveness is not
//     recorded in the append-only triangle log (the log keeps ripped
//     triangles forever, by design), so the map is serialized as the face
//     table's epoch snapshot rather than recomputed.
//
// Why a committed round boundary is a sufficient restore point at all is
// the monotone-final invariant (view.go, DESIGN.md): committed triangles
// are immutable, a committed round's effects can never be rolled back, and
// the per-round final sets grow monotonically toward exactly finish()'s
// selection. The boundary state therefore IS a prefix of the one
// deterministic run — resuming from it replays the identical remainder.
//
// CaptureState must be called by the publisher between Step calls (the
// same quiesced point AdvanceEpoch runs at). It copies only what later
// rounds mutate — the face map, the candidate list, the counters — and
// shares the append-only storage (points, triangle-log prefix, depths,
// final ids) with the engine: committed prefixes are immutable, so a
// serializer may read them from another goroutine while the build runs.

// FaceRec is one face-map entry in captured form: the packed face key and
// the entry's two inline value words exactly as the lock-free table
// stores them (incident triangles + dedup stamp). The words are opaque to
// serializers; ResumeLive decodes and validates them.
type FaceRec struct {
	Key    uint64
	W0, W1 uint64
}

// BuildState is a resumable snapshot of a triangulation under
// construction, captured at a committed round boundary. The slice fields
// referencing engine storage (Pts, Tris, Depth, Final) are shared and
// must be treated as immutable; Faces and Cand are copies owned by the
// state.
type BuildState struct {
	Round int32
	Done  bool
	N     int          // input points (excluding the 3 bounding corners)
	Pts   []geom.Point // input points then the 3 bounding corners
	Tris  []Tri        // committed triangle-log prefix
	Depth []int32      // dependence depth per triangle
	Final []int32      // ids of final triangles, ascending
	Faces []FaceRec    // face-map epoch snapshot at the boundary
	Cand  []uint64     // candidate faces for the next round, in order
	Stats Stats
	Pred  geom.PredicateStats
}

// CaptureState snapshots the live build for checkpointing. It must be
// called from the publisher goroutine between Step calls — the committed
// round boundary, where face-map mutators are quiesced. The capture cost
// is O(faces + candidates); the shared slices make the rest O(1).
func (lv *Live) CaptureState() *BuildState {
	e := lv.e
	s := e.s
	st := &BuildState{
		Round: e.round,
		Done:  lv.done,
		N:     s.n,
		Pts:   s.pts[:len(s.pts):len(s.pts)],
		Tris:  s.tris[:len(s.tris):len(s.tris)],
		Depth: s.depth[:len(s.depth):len(s.depth)],
		Final: lv.final[:len(lv.final):len(lv.final)],
		Cand:  append([]uint64(nil), e.cand...),
		Stats: s.stats,
		Pred:  *s.pred,
	}
	snap := e.faces.Snapshot()
	st.Faces = make([]FaceRec, 0, snap.Len())
	snap.Range(func(k uint64, v faceEntry) bool {
		w0, w1 := encFace(v)
		st.Faces = append(st.Faces, FaceRec{Key: k, W0: w0, W1: w1})
		return true
	})
	snap.Close()
	return st
}

// Watermark identifies a committed prefix of the append-only build log:
// the round it was committed at and how far the triangle log and the
// final-id list reached. Because committed storage is append-only and
// immutable, a watermark taken at one boundary remains a valid prefix
// description of every later boundary of the same build — which is what
// lets an incremental checkpoint serialize only the suffix past it.
type Watermark struct {
	Round int32
	Tris  int // committed triangle-log length
	Final int // final-id count
}

// Watermark returns the committed-prefix watermark of a captured state.
func (st *BuildState) Watermark() Watermark {
	return Watermark{Round: st.Round, Tris: len(st.Tris), Final: len(st.Final)}
}

// BuildDelta is the increment between two committed boundaries of ONE
// build: the append-only suffix past Base (triangle log, depths, final
// ids — shared slices, immutable) plus the full mutable remainder (face
// map, candidate list, counters — copies, like BuildState's). Applied to
// a BuildState whose watermark equals Base, it reconstructs the exact
// later state; it carries no points (the base has them) and no prefix.
type BuildDelta struct {
	Round int32
	Done  bool
	N     int       // input points, repeated for structural cross-checks
	Base  Watermark // the committed prefix this delta extends
	Tris  []Tri     // triangle-log suffix past Base.Tris
	Depth []int32   // depth suffix, parallel to Tris
	Final []int32   // final-id suffix; ids in [Base.Tris, Base.Tris+len(Tris))
	Faces []FaceRec // full face-map snapshot at the later boundary
	Cand  []uint64  // full candidate list for the next round
	Stats Stats
	Pred  geom.PredicateStats
}

// DeltaSince slices the increment between since and st out of a captured
// state. Cost: O(1) shares for the append-only suffixes (they are
// sub-slices of st's shared storage), zero copies — the faces and
// candidates are re-shared from st, which already owns them. An encoder
// walking the result touches O(suffix + faces + candidates) data instead
// of the whole build, which is the point of an incremental checkpoint.
func (st *BuildState) DeltaSince(since Watermark) (*BuildDelta, error) {
	if since.Round < 0 || since.Tris < 1 || since.Final < 0 {
		return nil, fmt.Errorf("delaunay: delta base watermark %+v malformed", since)
	}
	if since.Round > st.Round || since.Tris > len(st.Tris) || since.Final > len(st.Final) {
		return nil, fmt.Errorf("delaunay: delta base watermark %+v ahead of state (round %d, %d tris, %d final)",
			since, st.Round, len(st.Tris), len(st.Final))
	}
	d := &BuildDelta{
		Round: st.Round,
		Done:  st.Done,
		N:     st.N,
		Base:  since,
		Tris:  st.Tris[since.Tris:len(st.Tris):len(st.Tris)],
		Depth: st.Depth[since.Tris:len(st.Depth):len(st.Depth)],
		Final: st.Final[since.Final:len(st.Final):len(st.Final)],
		Faces: st.Faces,
		Cand:  st.Cand,
		Stats: st.Stats,
		Pred:  st.Pred,
	}
	return d, d.Validate()
}

// CaptureDelta captures the live build as an increment over since — the
// watermark of the last committed checkpoint generation. Same call-site
// contract as CaptureState (publisher goroutine, between Steps); the cost
// is the mutable remainder (faces + candidates) plus O(1) suffix shares,
// independent of how much of the build lies below the watermark.
func (lv *Live) CaptureDelta(since Watermark) (*BuildDelta, error) {
	return lv.CaptureState().DeltaSince(since)
}

// Validate is the structural check for a delta in isolation (its base is
// not at hand): every constraint that must hold for ANY base matching the
// watermark. Cross-checks against a concrete base are ApplyDelta's job.
func (d *BuildDelta) Validate() error {
	if d.N < 0 || d.Round < 0 {
		return fmt.Errorf("delaunay: delta has negative n (%d) or round (%d)", d.N, d.Round)
	}
	if d.Base.Round < 0 || d.Base.Tris < 1 || d.Base.Final < 0 {
		return fmt.Errorf("delaunay: delta base watermark %+v malformed", d.Base)
	}
	if d.Round < d.Base.Round {
		return fmt.Errorf("delaunay: delta round %d behind its base round %d", d.Round, d.Base.Round)
	}
	if len(d.Depth) != len(d.Tris) {
		return fmt.Errorf("delaunay: %d depths for %d suffix triangles", len(d.Depth), len(d.Tris))
	}
	nt := d.Base.Tris + len(d.Tris)
	if err := checkParts(d.N, nt, d.Tris, d.Faces, d.Cand); err != nil {
		return err
	}
	// A triangle's final status is fixed at creation (E empty at creation,
	// final forever — the monotone-final invariant), so every final id
	// discovered after the base boundary names a SUFFIX triangle.
	prev := int32(d.Base.Tris) - 1
	for _, id := range d.Final {
		if id <= prev || int(id) >= nt {
			return fmt.Errorf("delaunay: delta final id %d non-ascending or outside the suffix [%d,%d)",
				id, d.Base.Tris, nt)
		}
		prev = id
	}
	return nil
}

// ApplyDelta reconstructs the later boundary state from a base state and
// the delta captured against it. The base must match the delta's recorded
// watermark exactly; deeper identity (is this REALLY the same build, not
// merely one of the same shape?) is the caller's to verify — the
// checkpoint restorer binds chains with prefix digests and run metadata
// before calling this. The result owns fresh concatenated log arrays and
// shares Pts with the base; base and delta are not mutated.
func ApplyDelta(base *BuildState, d *BuildDelta) (*BuildState, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if base.N != d.N {
		return nil, fmt.Errorf("delaunay: delta for n=%d applied to base with n=%d", d.N, base.N)
	}
	if got := base.Watermark(); got != d.Base {
		return nil, fmt.Errorf("delaunay: delta base watermark %+v does not match base state %+v", d.Base, got)
	}
	if base.Done && len(d.Tris) > 0 {
		return nil, fmt.Errorf("delaunay: delta extends a completed base")
	}
	st := &BuildState{
		Round: d.Round,
		Done:  d.Done,
		N:     base.N,
		Pts:   base.Pts,
		Tris:  append(base.Tris[:len(base.Tris):len(base.Tris)], d.Tris...),
		Depth: append(base.Depth[:len(base.Depth):len(base.Depth)], d.Depth...),
		Final: append(base.Final[:len(base.Final):len(base.Final)], d.Final...),
		Faces: d.Faces,
		Cand:  d.Cand,
		Stats: d.Stats,
		Pred:  d.Pred,
	}
	return st, nil
}

// Validate rejects states that cannot have come from a committed round
// boundary: every point must be finite and every index must land in range
// before ResumeLive builds an engine around the data. Deep semantic checks
// (is this face map really the boundary face map?) are the determinism
// suite's job; Validate's is memory safety and fail-fast on corrupt or
// adversarial input that got past a decoder. The checkpoint restorer
// calls it to probe a decoded state without paying for a full engine
// reconstruction attempt.
func (st *BuildState) Validate() error {
	if st.N < 0 || st.Round < 0 {
		return fmt.Errorf("delaunay: state has negative n (%d) or round (%d)", st.N, st.Round)
	}
	if len(st.Pts) != st.N+3 {
		return fmt.Errorf("delaunay: state has %d points, want n+3 = %d", len(st.Pts), st.N+3)
	}
	for i, p := range st.Pts {
		if !finite(p.X) || !finite(p.Y) {
			return fmt.Errorf("delaunay: point %d (%g, %g) is not finite", i, p.X, p.Y)
		}
	}
	nt := len(st.Tris)
	if nt < 1 {
		return fmt.Errorf("delaunay: state has no triangles (the bounding triangle always exists)")
	}
	if len(st.Depth) != nt {
		return fmt.Errorf("delaunay: %d depths for %d triangles", len(st.Depth), nt)
	}
	if err := checkParts(st.N, nt, st.Tris, st.Faces, st.Cand); err != nil {
		return err
	}
	prev := int32(-1)
	for _, id := range st.Final {
		if id <= prev || int(id) >= nt {
			return fmt.Errorf("delaunay: final id %d non-ascending or out of range [0,%d)", id, nt)
		}
		if len(st.Tris[id].E) != 0 {
			return fmt.Errorf("delaunay: final triangle %d has a non-empty encroacher list", id)
		}
		prev = id
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkParts is the structural check a state and a delta share, against
// n input points and a triangle log nt long: tris, the log's last
// len(tris) records, must have in-range corners and ascending in-range
// encroachers; every face key and candidate key must name two in-range
// endpoints in order; every face entry must reference logged triangles.
func checkParts(n, nt int, tris []Tri, faces []FaceRec, cand []uint64) error {
	npts := int32(n + 3)
	checkKey := func(what string, k uint64) error {
		if a, b := faceEnds(k); a < 0 || b < 0 || a >= npts || b >= npts || a > b {
			return fmt.Errorf("delaunay: %s key %#x has bad endpoints (%d, %d)", what, k, a, b)
		}
		return nil
	}
	off := nt - len(tris)
	for i, t := range tris {
		for _, v := range t.V {
			if v < 0 || v >= npts {
				return fmt.Errorf("delaunay: triangle %d corner %d out of range [0,%d)", off+i, v, npts)
			}
		}
		prev := int32(-1)
		for _, w := range t.E {
			if w <= prev || int(w) >= n {
				return fmt.Errorf("delaunay: triangle %d has non-ascending or out-of-range encroacher %d", off+i, w)
			}
			prev = w
		}
	}
	for _, f := range faces {
		if err := checkKey("face", f.Key); err != nil {
			return err
		}
		ent := decFace(f.W0, f.W1)
		if ent.t0 < 0 || int(ent.t0) >= nt || ent.t1 != NoTri && (ent.t1 < 0 || int(ent.t1) >= nt) {
			return fmt.Errorf("delaunay: face %#x references a triangle outside [0,%d)", f.Key, nt)
		}
	}
	for _, k := range cand {
		if err := checkKey("candidate", k); err != nil {
			return err
		}
	}
	return nil
}

// ResumeLive reconstructs a live triangulation from a captured (or
// decoded) state and publishes the restored view. The resumed build steps
// from the checkpointed round and — by the determinism contract — emits
// exactly the triangles the uninterrupted run would have, so the final
// mesh is identical. The restored publication cell continues the
// pre-crash epoch numbering (parallel.Epoch.PublishAt), and the face
// map's table epoch is re-advanced to the restored round so snapshot
// epochs keep matching publication rounds at the boundaries.
//
// ResumeLive copies the state's mutable containers (the triangle log,
// depths, candidates, final ids) into engine-owned storage; Pts and the
// per-triangle E arrays are shared with the state, which must not mutate
// them afterward (a decoded state never does; a captured one is immutable
// by construction).
func ResumeLive(st *BuildState) (*Live, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	s := &store{pts: st.Pts, n: st.N, pred: &geom.PredicateStats{}}
	s.stats = st.Stats
	*s.pred = st.Pred
	resCap := 4*s.n + 16
	if len(st.Tris) > resCap {
		resCap = len(st.Tris)
	}
	s.tris = append(make([]Tri, 0, resCap), st.Tris...)
	s.depth = append(make([]int32, 0, resCap), st.Depth...)

	faces := hashtable.NewLockFreeInline[uint64, faceEntry](8*st.N+16,
		func(k uint64) uint64 { return k }, encFace, decFace)
	for _, f := range st.Faces {
		faces.Store(f.Key, decFace(f.W0, f.W1))
	}
	for faces.Epoch() < uint64(st.Round) {
		faces.AdvanceEpoch()
	}

	e := &roundEngine{
		s:     s,
		faces: faces,
		ar:    newRoundArena(),
		cand:  append([]uint64(nil), st.Cand...),
		round: st.Round,
	}
	lv := &Live{
		e:       e,
		grid:    newLocGrid(s.pts, s.n),
		scanned: len(s.tris),
		final:   append([]int32(nil), st.Final...),
		done:    st.Done,
	}
	for _, id := range lv.final {
		lv.grid.add(id, s.tris[id].V)
	}
	lv.pub.PublishAt(lv.view(), uint64(e.round)+1)
	return lv, nil
}
