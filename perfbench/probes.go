package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/hashtable"
	"repro/internal/parallel"
)

// The per-layer probes of the traced run: each times one layer's entry
// point on data taken from the run's own mesh, inside a span per batch
// (a span per call would cost more than the calls it times).

var sinkInt int

// probes sets the probe metrics in m: one empty parallel.Blocks over n at
// P=2; InCircleStats and Orient2D per call over the mesh's interior-edge
// quads, with the share of InCircle calls that took the exact path; and
// LockFreeInline Update and Load per call over the mesh's edge keys at P=2.
func (b *bench) probes(m metrics) {
	runtime.GOMAXPROCS(b.cfg.procs)
	mesh := b.s.mesh
	qs := quadsOf(mesh)
	const reps = 5

	sp := b.tr.begin("probe_blocks", 0, -1)
	n := len(b.in.dt)
	var bl []float64
	for i := 0; i < 2000; i++ {
		t := time.Now()
		parallel.Blocks(0, n, parallel.DefaultGrain, func(lo, hi int) {})
		bl = append(bl, float64(time.Since(t).Nanoseconds())/1e3)
	}
	m.set("parallel.blocks_us", "us", median(bl))
	b.tr.end(sp)

	var ic, or []float64
	var exact float64
	for r := 0; r < reps; r++ {
		var st geom.PredicateStats
		acc := 0
		sp := b.tr.begin("probe_incircle", 0, -1)
		t := time.Now()
		for _, q := range qs {
			acc += geom.InCircleStats(q.a, q.b, q.c, q.d, &st)
		}
		ic = append(ic, float64(time.Since(t).Nanoseconds())/float64(len(qs)))
		b.tr.end(sp)
		exact = float64(st.InCircleExact) / float64(st.InCircleCalls)

		sp = b.tr.begin("probe_orient", 0, -1)
		t = time.Now()
		for _, q := range qs {
			acc += geom.Orient2D(q.a, q.b, q.c)
		}
		or = append(or, float64(time.Since(t).Nanoseconds())/float64(len(qs)))
		b.tr.end(sp)
		sinkInt += acc
	}
	m.set("geom.incircle_ns", "ns", median(ic))
	m.set("geom.incircle_exact_ratio", "ratio", exact)
	m.set("geom.orient_ns", "ns", median(or))

	keys := edgeKeys(mesh)
	var up, ld []float64
	for r := 0; r < reps; r++ {
		h := hashtable.NewLockFreeInline[uint64, int32](len(keys),
			func(k uint64) uint64 { return k }, hashtable.EncInt32, hashtable.DecInt32)
		sp := b.tr.begin("probe_update", 0, -1)
		t := time.Now()
		parallel.For(0, len(keys), func(i int) {
			h.Update(keys[i], func(old int32, _ bool) int32 { return old + 1 })
		})
		up = append(up, float64(time.Since(t).Nanoseconds())/float64(len(keys)))
		b.tr.end(sp)

		var bad atomic.Int64
		sp = b.tr.begin("probe_load", 0, -1)
		t = time.Now()
		parallel.Blocks(0, len(keys), parallel.DefaultGrain, func(lo, hi int) {
			miss := int64(0)
			for _, k := range keys[lo:hi] {
				if v, ok := h.Load(k); !ok || v != 1 {
					miss++
				}
			}
			bad.Add(miss)
		})
		ld = append(ld, float64(time.Since(t).Nanoseconds())/float64(len(keys)))
		b.tr.end(sp)
		var err error
		if bad.Load() > 0 {
			err = fmt.Errorf("%d of %d edge keys lost or miscounted", bad.Load(), len(keys))
		}
		b.ops("LockFreeInline Update+Load", int64(len(keys)), bad.Load(), err)
	}
	m.set("hashtable.update_ns", "ns", median(up))
	m.set("hashtable.load_ns", "ns", median(ld))
}
