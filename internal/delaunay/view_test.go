package delaunay

// Tests for the serve-while-building layer (view.go): published views
// against the finished mesh, Locate against brute force, the monotone
// final-set argument, the linearizable-snapshot stress (every view a
// concurrent reader observes equals a committed-round prefix of a
// deterministic reference run), the face-map serving snapshot, and the
// zero-alloc query pins. The stress tests run under -race in CI.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// viewRow is one committed round of a reference run: what every
// concurrently observed view of the same input must match exactly.
type viewRow struct {
	tris   int    // committed triangle-log length
	nFinal int    // final-set watermark
	sum    uint64 // order-sensitive checksum of the final ids
}

func finalSum(v *MeshView) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < v.NumFinal(); i++ {
		h = (h ^ uint64(uint32(v.FinalID(i)))) * 1099511628211
	}
	return h
}

// referenceRun drives a Live sequentially and records every committed
// round. The engine is deterministic (log order included — the
// cancellation suite compares meshes index by index), so these rows are
// THE committed-prefix sequence for this input.
func referenceRun(t *testing.T, pts []geom.Point) map[int32]viewRow {
	t.Helper()
	lv := NewLive(pts)
	rows := make(map[int32]viewRow)
	record := func() {
		v := lv.View()
		rows[v.Round()] = viewRow{tris: v.NumTriangles(), nFinal: v.NumFinal(), sum: finalSum(v)}
	}
	record()
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("reference Step: %v", err)
		}
		record()
		if !more {
			return rows
		}
	}
}

// TestLiveRunMatchesParTriangulate: serving changes nothing about the
// result — Live.Run publishes every round and still produces the exact
// deterministic mesh, and the last view's final set is that mesh.
func TestLiveRunMatchesParTriangulate(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(99), 1500))
	want := ParTriangulate(pts)
	lv := NewLive(pts)
	got, err := lv.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	meshEqual(t, "live run", got, want)
	v := lv.View()
	if !v.Done() {
		t.Fatal("last view not Done after Run")
	}
	if v.NumFinal() != len(want.Triangles) {
		t.Fatalf("last view has %d final triangles, mesh has %d", v.NumFinal(), len(want.Triangles))
	}
	for i := 0; i < v.NumFinal(); i++ {
		if v.Corners(v.FinalID(i)) != want.Triangles[i].V {
			t.Fatalf("final triangle %d corners diverge from finish()", i)
		}
	}
	fin := lv.Finish()
	meshEqual(t, "Finish after Run", fin, want)
}

// TestLiveViewsMonotone pins the growth argument stepwise: round, log
// length, and final count never decrease; every earlier view's final
// prefix survives verbatim in every later view; Done exactly once at
// the end.
func TestLiveViewsMonotone(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(5), 1000))
	lv := NewLive(pts)
	prev := lv.View()
	var prevEpoch uint64
	if _, e := lv.ViewEpoch(); e != 1 {
		t.Fatalf("initial publication epoch = %d, want 1", e)
	}
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		v, ep := lv.ViewEpoch()
		if ep <= prevEpoch && prevEpoch != 0 {
			t.Fatalf("epoch went %d -> %d", prevEpoch, ep)
		}
		prevEpoch = ep
		// Each committed round bumps the counter; the final step — an
		// empty activation that only flips Done — republishes at the
		// same round.
		if v.Round() != prev.Round()+1 && !(v.Round() == prev.Round() && !more) {
			t.Fatalf("round went %d -> %d (more=%v)", prev.Round(), v.Round(), more)
		}
		if v.NumTriangles() < prev.NumTriangles() || v.NumFinal() < prev.NumFinal() {
			t.Fatal("view shrank")
		}
		for i := 0; i < prev.NumFinal(); i++ {
			if v.FinalID(i) != prev.FinalID(i) {
				t.Fatalf("final id %d changed across rounds: %d -> %d", i, prev.FinalID(i), v.FinalID(i))
			}
		}
		if v.Done() != !more {
			t.Fatalf("Done = %v with more = %v", v.Done(), more)
		}
		prev = v
		if !more {
			return
		}
	}
}

// isFinalOf reports whether triangle id is in v's final set.
func isFinalOf(v *MeshView, id int32) bool {
	i := sort.Search(v.NumFinal(), func(i int) bool { return v.FinalID(i) >= id })
	return i < v.NumFinal() && v.FinalID(i) == id
}

// locateMismatch cross-checks Locate against a linear scan of v's own
// final set for nq random queries over [-0.1, 1.1)²: Locate must answer
// exactly when one of v's final triangles contains the query, and only
// with such a triangle. It returns "" or the first mismatch, so readers
// on other goroutines can report it.
func locateMismatch(v *MeshView, r *rng.RNG, nq int) string {
	for k := 0; k < nq; k++ {
		p := geom.Point{X: r.Float64()*1.2 - 0.1, Y: r.Float64()*1.2 - 0.1}
		id, ok := v.Locate(p)
		if ok && (!isFinalOf(v, id) || !v.triContains(id, p)) {
			return fmt.Sprintf("round %d: Locate(%v) returned triangle %d, not a final triangle of this view containing it",
				v.Round(), p, id)
		}
		brute := false
		for i := 0; i < v.NumFinal() && !brute; i++ {
			brute = v.triContains(v.FinalID(i), p)
		}
		if ok != brute {
			return fmt.Sprintf("round %d: Locate(%v) = %v, brute force = %v", v.Round(), p, ok, brute)
		}
	}
	return ""
}

// TestViewLocateBruteForce cross-checks the location grid against a
// linear scan of the final set, on mid-build views and the completed
// one: Locate finds a containing final triangle exactly when one exists,
// and the triangle it returns does contain the query. Every mid-build
// view is checked again after the build completes: the grid is shared
// and has grown since, so a stale view must still see exactly its own
// final set.
func TestViewLocateBruteForce(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(12), 900))
	lv := NewLive(pts)
	r := rng.New(77)
	var checked []*MeshView
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if v := lv.View(); v.Round()%7 == 0 || !more {
			if msg := locateMismatch(v, r, 300); msg != "" {
				t.Fatal(msg)
			}
			checked = append(checked, v)
		}
		if !more {
			break
		}
	}
	for _, v := range checked {
		if msg := locateMismatch(v, r, 300); msg != "" {
			t.Fatalf("stale view: %s", msg)
		}
	}
	// Completed view: every input point must locate (it is a corner of
	// some final triangle), and far-outside points must not.
	v := lv.View()
	for i := 0; i < v.NumPoints(); i += 13 {
		if !v.Contains(v.Point(int32(i))) {
			t.Fatalf("input point %d not contained in completed view", i)
		}
	}
	if v.Contains(geom.Point{X: 1e6, Y: 1e6}) {
		t.Fatal("point far outside the hull located in a final triangle")
	}
}

// TestLiveConcurrentReaders is the mesh half of the linearizable-
// snapshot stress: readers hammer views (and face-map snapshots) while
// the publisher builds, asserting every observed view is byte-for-byte
// one of the reference run's committed-round prefixes and that epochs
// and rounds only move forward per reader. Each reader also keeps a view
// and, once the build is 5 or more rounds past it, re-queries it against
// its own final set while the publisher keeps extending the shared grid.
// Run under -race in CI.
func TestLiveConcurrentReaders(t *testing.T) {
	n := 2500
	if testing.Short() {
		n = 800
	}
	pts := geom.Dedup(geom.UniformSquare(rng.New(21), n))
	rows := referenceRun(t, pts)

	lv := NewLive(pts)
	p := runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	report := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
	}
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			var lastEp uint64
			var lastRound int32 = -1
			var stale *MeshView
			for !stop.Load() {
				v, ep := lv.ViewEpoch()
				if ep < lastEp || (ep == lastEp && v.Round() != lastRound && lastRound != -1) {
					report("publication went backwards")
					return
				}
				lastEp = ep
				if v.Round() < lastRound {
					report("round went backwards")
					return
				}
				lastRound = v.Round()
				row, ok := rows[v.Round()]
				if !ok {
					report("observed a round the reference run never committed")
					return
				}
				if v.NumTriangles() != row.tris || v.NumFinal() != row.nFinal || finalSum(v) != row.sum {
					report("observed view diverges from the committed reference prefix")
					return
				}
				// Query load: locations must stay self-consistent, and the
				// face map must know every committed triangle's edges.
				fs := lv.Faces()
				for i := 0; i < 32; i++ {
					q := geom.Point{X: r.Float64(), Y: r.Float64()}
					if id, ok := v.Locate(q); ok {
						if !v.triContains(id, q) {
							report("Locate returned a non-containing triangle")
							fs.Close()
							return
						}
						c := v.Corners(id)
						if _, _, ok := fs.Incident(c[0], c[1]); !ok {
							report("final triangle edge missing from face snapshot")
							fs.Close()
							return
						}
					}
				}
				fs.Close()
				if stale == nil {
					stale = v
				} else if v.Round() >= stale.Round()+5 {
					if msg := locateMismatch(stale, r, 4); msg != "" {
						report("stale view: " + msg)
						return
					}
					stale = v
				}
			}
		}(uint64(g)*131 + 7)
	}
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !more {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestLiveAwaitFollowsRounds: a reader chaining Await sees a strictly
// increasing epoch sequence ending at the Done view, and cancellation
// unblocks a stuck Await.
func TestLiveAwaitFollowsRounds(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(3), 600))
	lv := NewLive(pts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		for {
			v, ep, err := lv.Await(last, nil)
			if err != nil {
				t.Errorf("Await: %v", err)
				return
			}
			if ep <= last {
				t.Errorf("Await epoch went %d -> %d", last, ep)
				return
			}
			last = ep
			if v.Done() {
				return
			}
		}
	}()
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !more {
			break
		}
	}
	<-done

	var c parallel.Canceler
	errc := make(chan error, 1)
	go func() {
		_, _, err := lv.Await(1<<60, &c) // no such epoch: blocks until canceled
		errc <- err
	}()
	c.Cancel()
	if err := <-errc; err == nil {
		t.Fatal("Await ignored cancellation")
	}
}

// TestLiveEdgeCases: empty and single-point inputs publish immediately
// final views; canceled Steps keep the last view current.
func TestLiveEdgeCases(t *testing.T) {
	lv := NewLive(nil)
	v := lv.View()
	if !v.Done() || v.NumFinal() != 1 || v.Round() != 0 {
		t.Fatalf("empty input view: done=%v final=%d round=%d", v.Done(), v.NumFinal(), v.Round())
	}
	if m := lv.Finish(); len(m.Triangles) != 1 {
		t.Fatalf("empty input mesh has %d triangles", len(m.Triangles))
	}

	lv = NewLive([]geom.Point{{X: 0.5, Y: 0.5}})
	if _, err := lv.Run(nil); err != nil {
		t.Fatalf("single-point Run: %v", err)
	}
	if v := lv.View(); !v.Done() || v.NumFinal() != 3 {
		t.Fatalf("single-point final view: done=%v final=%d", v.Done(), v.NumFinal())
	}

	// Cancellation: an already-canceled token fails the Step, and the
	// previously published view stays exactly current.
	lv = NewLive(geom.Dedup(geom.UniformSquare(rng.New(8), 200)))
	var c parallel.Canceler
	c.Cancel()
	before, beforeEp := lv.ViewEpoch()
	if _, err := lv.Step(&c); err == nil {
		t.Fatal("canceled Step returned nil error")
	}
	after, afterEp := lv.ViewEpoch()
	if after != before || afterEp != beforeEp {
		t.Fatal("canceled Step changed the published view")
	}
	// The engine stays resumable: finish the build with a live token.
	if _, err := lv.Run(nil); err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if !lv.View().Done() {
		t.Fatal("resumed run did not complete")
	}
}

// TestFaceSnapServing: the face snapshot knows every committed
// triangle's edges, reports hull faces with one side open, and survives
// (torn-free) across the build; Len and Epoch behave.
func TestFaceSnapServing(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(44), 700))
	lv := NewLive(pts)
	if _, err := lv.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	v := lv.View()
	fs := lv.Faces()
	defer fs.Close()
	if fs.Epoch() == 0 {
		t.Fatal("face snapshot epoch 0 after a full build of boundaries")
	}
	if fs.Len() == 0 {
		t.Fatal("face snapshot empty after build")
	}
	for i := 0; i < v.NumFinal(); i++ {
		c := v.Corners(v.FinalID(i))
		for e := 0; e < 3; e++ {
			t0, _, ok := fs.Incident(c[e], c[(e+1)%3])
			if !ok {
				t.Fatalf("edge (%d,%d) of final triangle missing from face map", c[e], c[(e+1)%3])
			}
			if t0 == NoTri {
				t.Fatalf("edge (%d,%d) has no primary triangle", c[e], c[(e+1)%3])
			}
		}
	}
	if _, _, ok := fs.Incident(0, 0); ok {
		t.Fatal("degenerate edge (0,0) reported present")
	}
}

// TestViewQueryAllocs pins the zero-alloc serve path: Locate, Contains,
// Corners, and FaceSnap.Incident allocate nothing on the float fast
// path (ridtvet pins the same statically via //ridt:noalloc).
func TestViewQueryAllocs(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(61), 1200))
	lv := NewLive(pts)
	if _, err := lv.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	v := lv.View()
	fs := lv.Faces()
	defer fs.Close()
	r := rng.New(9)
	qs := make([]geom.Point, 64)
	for i := range qs {
		qs[i] = geom.Point{X: r.Float64(), Y: r.Float64()}
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		q := qs[i%len(qs)]
		i++
		if id, ok := v.Locate(q); ok {
			c := v.Corners(id)
			_, _, _ = fs.Incident(c[0], c[1])
		}
		_ = lv.View()
	}); avg != 0 {
		t.Fatalf("serve-path queries allocate %.2f per op, want 0", avg)
	}
}

// TestLivePublishAllocs pins publication at O(delta): republishing with
// no new final triangles allocates the same small constant at 2Ki and
// 8Ki points (the view, the epoch cell's entry and its tick channel) and
// nothing proportional to the grid or the final set.
func TestLivePublishAllocs(t *testing.T) {
	var allocs [2]float64
	var bytes [2]uint64
	for i, n := range []int{1 << 11, 1 << 13} {
		lv := NewLive(geom.Dedup(geom.UniformSquare(rng.New(73), n)))
		if _, err := lv.Run(nil); err != nil {
			t.Fatalf("Run: %v", err)
		}
		allocs[i] = testing.AllocsPerRun(100, lv.publish)
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < runs; k++ {
			lv.publish()
		}
		runtime.ReadMemStats(&after)
		bytes[i] = (after.TotalAlloc - before.TotalAlloc) / runs
	}
	t.Logf("per publication: %v allocs, %v bytes (2Ki, 8Ki points)", allocs, bytes)
	if allocs[0] != allocs[1] || allocs[1] > 4 {
		t.Fatalf("publication allocates %v times at 2Ki/8Ki points, want the same small constant", allocs)
	}
	if bytes[1] > 512 || bytes[1] > bytes[0]+64 {
		t.Fatalf("publication allocates %v bytes at 2Ki/8Ki points, want a small constant independent of n", bytes)
	}
}
