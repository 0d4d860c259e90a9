package main

import (
	"fmt"
	"runtime"

	"repro/internal/checkpoint"
	"repro/internal/closestpair"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/seb"
)

// samples holds the raw measurements of a run. Times are seconds unless
// the name says otherwise; one entry per pass unless noted.
type samples struct {
	setup      []float64
	buildP2    []float64
	buildP1    []float64
	seq        []float64
	serveBuild []float64
	restore    []float64 // cfg.restores per pass
	allocMB    []float64 // all calls at P=2
	liveBare   []float64 // traced passes only
	parServe   []float64 // traced passes only
	// Reader latency quantiles, one per pass. The median over passes is
	// reported rather than a quantile over all queries: the latency
	// distribution is bimodal (the reader wakes at once when a P is idle,
	// or waits for the build to yield one), p50 sits on the steep part
	// between the modes, and one disturbed pass moved a pooled p50 by a
	// third.
	queryP50, queryP99 []float64

	// Publication, reader and checkpoint counts, one per pass.
	views, viewsSeen        []float64
	offered, saved, dropped []float64
	bytesFull, bytesDelta   []float64 // one per committed generation
	queries, hits, incOK    int64
	lateMS                  float64

	// Reference results from the first pass; every later build must
	// reproduce them.
	mesh        *delaunay.Mesh // first P=2 mesh, for the structural checks
	digest      uint32         // checkpoint.DigestMesh of the round engine's log
	canon       uint32         // digest of the canonical triangle set, for Triangulate
	serveMesh   *delaunay.Mesh // first completed Live build of the serve points
	serveDigest uint32
	buildPred   geom.PredicateStats
}

// canonDigest digests a mesh's triangle set in canonical order with the
// work counters both engines share, so the sequential build (which logs
// triangles in another order and counts no rounds) compares with the
// round engine's.
func canonDigest(m *delaunay.Mesh) uint32 {
	c := &delaunay.Mesh{N: m.N, Stats: delaunay.Stats{
		InCircleTests:    m.Stats.InCircleTests,
		TrianglesCreated: m.Stats.TrianglesCreated,
	}}
	for _, v := range delaunay.SortTriangles(m.Triangles) {
		c.Triangles = append(c.Triangles, delaunay.Tri{V: v})
	}
	return checkpoint.DigestMesh(c)
}

// sameDigest reports whether m has the reference digest.
func sameDigest(m *delaunay.Mesh, want uint32) error {
	if d := checkpoint.DigestMesh(m); d != want {
		return fmt.Errorf("digest %08x, want %08x", d, want)
	}
	return nil
}

// warmUp calls every entry point the passes time once, so the scheduler
// pool is started, the code is paged in and the heap has grown to a
// full-size build before the first timed call.
func (b *bench) warmUp(parent int64) {
	in := b.in
	sp := b.tr.begin("warm_up", parent, 0)
	defer b.tr.end(sp)
	delaunay.ParTriangulate(in.dt)
	closestpair.ParIncremental(in.cp[0])
	seb.ParIncremental(in.seb[0])
	lp.ParSolve(in.lp[0].cons, in.lp[0].cx, in.lp[0].cy)
}

// pass is one timed round of every end-to-end operation; the metrics are
// medians over passes.
func (b *bench) pass(run int64) {
	sp := b.tr.begin("pass", 0, run)
	defer b.tr.end(sp)
	p := b.cfg.procs
	in := b.in

	var m2, m1, ms *delaunay.Mesh
	t, alloc := b.timed("build_p2", sp.ID, run, p, func() { m2 = delaunay.ParTriangulate(in.dt) })
	b.s.buildP2 = append(b.s.buildP2, t)
	t, _ = b.timed("build_p1", sp.ID, run, 1, func() { m1 = delaunay.ParTriangulate(in.dt) })
	b.s.buildP1 = append(b.s.buildP1, t)
	t, _ = b.timed("build_seq", sp.ID, run, 1, func() { ms = delaunay.Triangulate(in.dt) })
	b.s.seq = append(b.s.seq, t)

	if b.s.mesh == nil {
		b.s.mesh = m2
		b.s.digest = checkpoint.DigestMesh(m2)
		b.s.canon = canonDigest(m2)
	}
	b.op("ParTriangulate P=2", sameDigest(m2, b.s.digest))
	b.op("ParTriangulate P=1", sameDigest(m1, b.s.digest))
	var err error
	if c := canonDigest(ms); c != b.s.canon {
		err = fmt.Errorf("canonical digest %08x, want %08x", c, b.s.canon)
	}
	b.op("Triangulate", err)
	m1, ms = nil, nil // let the serve build's collections free them

	alloc += b.serve(sp.ID, run)
	if b.cfg.trace {
		b.liveBare(sp.ID, run)
	}
	alloc += b.type2(sp.ID, run)
	b.s.allocMB = append(b.s.allocMB, float64(alloc)/(1<<20))
}

// liveBare steps a Live build of the serve points to completion with no
// reader and no saver, and builds the same points with ParTriangulate:
// the difference prices publication alone.
func (b *bench) liveBare(parent, run int64) {
	var lv *delaunay.Live
	var m *delaunay.Mesh
	t, _ := b.timed("live_bare", parent, run, b.cfg.procs, func() {
		lv = delaunay.NewLive(b.in.serve)
		for {
			more, err := lv.Step(nil)
			if err != nil || !more {
				return
			}
		}
	})
	b.s.liveBare = append(b.s.liveBare, t)
	b.op("Live (no reader)", b.finished(lv))
	t, _ = b.timed("par_serve", parent, run, b.cfg.procs, func() { m = delaunay.ParTriangulate(b.in.serve) })
	b.s.parServe = append(b.s.parServe, t)
	b.op("ParTriangulate (serve points)", sameDigest(m, b.s.serveDigest))
}

// finished checks that lv completed and built the reference serve mesh;
// the first completed build becomes the reference.
func (b *bench) finished(lv *delaunay.Live) error {
	if !lv.View().Done() {
		return fmt.Errorf("live build stopped before completion")
	}
	m := lv.Finish()
	if b.s.serveMesh == nil {
		b.s.serveMesh, b.s.serveDigest = m, checkpoint.DigestMesh(m)
		return nil
	}
	return sameDigest(m, b.s.serveDigest)
}

// finalChecks are the checks too slow to repeat every pass. On the first
// P=2 mesh and the first serve mesh (every other build matched their
// digests): CheckConsistency, and the local Delaunay condition on every
// interior edge — the O(edges) equivalent of the O(T·n) CheckDelaunay.
// In the untraced run, also ParTriangulate on the serve points (the Live
// builds must equal it) and the sequential Type 2 solvers on every
// instance the parallel ones solved; the traced run checks both in every
// pass instead.
func (b *bench) finalChecks() {
	for _, m := range []*delaunay.Mesh{b.s.mesh, b.s.serveMesh} {
		b.op("CheckConsistency", delaunay.CheckConsistency(m))
		b.op("local Delaunay check", localDelaunay(quadsOf(m)))
	}
	if !b.cfg.trace {
		b.op("ParTriangulate (serve points)", sameDigest(delaunay.ParTriangulate(b.in.serve), b.s.serveDigest))
		b.t2.cp.checkSeq(b)
		b.t2.seb.checkSeq(b)
		b.t2.lp.checkSeq(b)
	}
	runtime.GC()
}

// quad is an interior edge (a, b) with its two triangles (a, b, c) and
// (b, a, d), both counterclockwise.
type quad struct{ a, b, c, d geom.Point }

// quadsOf lists every edge of m shared by two triangles.
func quadsOf(m *delaunay.Mesh) []quad {
	type half struct {
		opp  int32
		a, b int32
	}
	first := make(map[uint64]half, 3*len(m.Triangles)/2)
	var qs []quad
	for _, t := range m.Triangles {
		for e := 0; e < 3; e++ {
			a, c, opp := t.V[e], t.V[(e+1)%3], t.V[(e+2)%3]
			k := edgeKey(a, c)
			if h, ok := first[k]; ok {
				qs = append(qs, quad{m.Points[h.a], m.Points[h.b], m.Points[h.opp], m.Points[opp]})
				delete(first, k)
				continue
			}
			first[k] = half{opp: opp, a: a, b: c}
		}
	}
	return qs
}

// edgeKeys lists every edge of m once.
func edgeKeys(m *delaunay.Mesh) []uint64 {
	seen := make(map[uint64]bool, 3*len(m.Triangles)/2)
	var keys []uint64
	for _, t := range m.Triangles {
		for e := 0; e < 3; e++ {
			if k := edgeKey(t.V[e], t.V[(e+1)%3]); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

func edgeKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// localDelaunay checks that no quad's fourth point lies strictly inside
// the circumcircle of the triangle across the edge.
func localDelaunay(qs []quad) error {
	if len(qs) == 0 {
		return fmt.Errorf("mesh has no interior edges")
	}
	for _, q := range qs {
		if geom.Orient2D(q.a, q.b, q.c) <= 0 {
			return fmt.Errorf("triangle %v %v %v is not counterclockwise", q.a, q.b, q.c)
		}
		if geom.InCircle(q.a, q.b, q.c, q.d) > 0 {
			return fmt.Errorf("edge %v-%v is not locally Delaunay", q.a, q.b)
		}
	}
	return nil
}
