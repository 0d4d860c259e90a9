package delaunay

// BenchmarkSnapshotRead* (mesh side): point location and adjacency
// queries against published views — the ridtd reader hot path. Recorded
// in BENCH_serve.json, gated by the CI bench job, run with -benchmem
// (zero allocs per query is a gated property).

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func benchLive(b *testing.B, n int, rounds int) *Live {
	b.Helper()
	pts := geom.Dedup(geom.UniformSquare(rng.New(2027), n))
	lv := NewLive(pts)
	for i := 0; rounds <= 0 || i < rounds; i++ {
		more, err := lv.Step(nil)
		if err != nil {
			b.Fatal(err)
		}
		if !more {
			break
		}
	}
	return lv
}

func benchQueries(n int) []geom.Point {
	r := rng.New(4242)
	qs := make([]geom.Point, n)
	for i := range qs {
		qs[i] = geom.Point{X: r.Float64(), Y: r.Float64()}
	}
	return qs
}

// BenchmarkSnapshotReadLocate queries the completed view's location
// grid: the steady-state serving cost once a build finishes.
func BenchmarkSnapshotReadLocate(b *testing.B) {
	lv := benchLive(b, 1<<14, 0)
	v := lv.View()
	qs := benchQueries(1 << 10)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, ok := v.Locate(q); ok {
				hits++
			}
		}
	}
	_ = hits
}

// BenchmarkSnapshotReadLocateMidBuild queries a half-built view, where
// the final set is sparse and misses dominate (the frontier-probing
// pattern ridtd readers see early in a build).
func BenchmarkSnapshotReadLocateMidBuild(b *testing.B) {
	lv := benchLive(b, 1<<14, 12)
	v := lv.View()
	qs := benchQueries(1 << 10)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, ok := v.Locate(q); ok {
				hits++
			}
		}
	}
	_ = hits
}

// BenchmarkSnapshotReadIncident prices the adjacency side: located
// triangle -> face-map snapshot probe, the ridtd reader's inner loop.
func BenchmarkSnapshotReadIncident(b *testing.B) {
	lv := benchLive(b, 1<<14, 0)
	v := lv.View()
	fs := lv.Faces()
	defer fs.Close()
	qs := benchQueries(1 << 10)
	ids := make([]int32, 0, len(qs))
	for _, q := range qs {
		if id, ok := v.Locate(q); ok {
			ids = append(ids, id)
		}
	}
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			c := v.Corners(id)
			if _, _, ok := fs.Incident(c[0], c[1]); ok {
				found++
			}
		}
	}
	_ = found
}

// BenchmarkSnapshotPublish prices a republication with no new final
// triangles: snapshotting the committed prefixes and publishing the view
// through the epoch cell. The location grid is persistent, so a round's
// publication adds only its new finals to it (collect, priced inside
// BenchmarkSnapshotLiveRun); nothing here grows with the mesh.
func BenchmarkSnapshotPublish(b *testing.B) {
	lv := benchLive(b, 1<<14, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lv.publish()
	}
}

// BenchmarkSnapshotLiveRun prices serving's whole tax on the builder: a
// Live.Run (every round committed, collected into the location grid and
// published) against ParTriangulate on the same 16Ki points. The
// difference between the two rows is the publish tax; rounds and ns per
// round are reported beside ns/op.
func BenchmarkSnapshotLiveRun(b *testing.B) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(2027), 1<<14))
	b.Run("engine=live", func(b *testing.B) {
		var rounds int32
		for i := 0; i < b.N; i++ {
			lv := NewLive(pts)
			if _, err := lv.Run(nil); err != nil {
				b.Fatal(err)
			}
			rounds = lv.View().Round()
		}
		b.ReportMetric(float64(rounds), "rounds")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rounds), "ns/round")
	})
	b.Run("engine=par", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ParTriangulate(pts)
		}
	})
}
