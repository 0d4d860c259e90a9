package main

import (
	"math"

	"repro/internal/closestpair"
	"repro/internal/lp"
	"repro/internal/seb"
)

// metrics accumulates named values with their units.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// endToEnd is what a user of the system sees, from the untraced run.
func (b *bench) endToEnd() map[string]metric {
	s := &b.s
	m := metrics{}
	m.set("setup_s", "s", median(s.setup))
	m.set("build_p2_s", "s", median(s.buildP2))
	m.set("build_p1_s", "s", median(s.buildP1))
	m.set("seq_s", "s", median(s.seq))
	m.set("alloc_mb", "MB", median(s.allocMB))
	m.set("serve_build_s", "s", median(s.serveBuild))
	m.set("query_p50_us", "us", median(s.queryP50))
	m.set("query_p99_us", "us", median(s.queryP99))
	m.set("restore_s", "s", median(s.restore))
	m.set("cp_s", "s", median(b.t2.cp.parT))
	m.set("seb_s", "s", median(b.t2.seb.parT))
	m.set("lp_s", "s", median(b.t2.lp.parT))
	return m
}

// layerMetrics is the traced run's per-layer breakdown: counts from the
// program's own stats, times from the spans around each call, and the
// probes.
func (b *bench) layerMetrics() map[string]metric {
	s, tr := &b.s, b.tr
	m := metrics{}
	b.probes(m)
	ms := func(name string) []float64 { return scale(tr.byName(name), 1e3) }
	ns := func(name string) []float64 { return scale(tr.byName(name), 1e9) }

	// parallel, geom, hashtable: the probes above, plus the scheduler's
	// speed-up and the predicates' exact-path rate inside a real build.
	p2, p1 := median(s.buildP2), median(s.buildP1)
	m.set("parallel.speedup_p2", "x", p1/p2)
	bp := s.buildPred
	m.set("geom.build_exact_ppm", "ppm", 1e6*float64(bp.InCircleExact)/float64(max(bp.InCircleCalls, 1)))

	// delaunay: the round engine's exact counts, and Step times.
	st, n := s.mesh.Stats, float64(s.mesh.N)
	m.set("delaunay.rounds", "count", float64(st.Rounds))
	m.set("delaunay.incircle_tests", "count", float64(st.InCircleTests))
	m.set("delaunay.tris_created", "count", float64(st.TrianglesCreated))
	m.set("delaunay.dep_depth", "count", float64(st.DepDepth))
	m.set("delaunay.ic_per_nlnn", "ratio", float64(st.InCircleTests)/(n*math.Log(n)))
	m.set("delaunay.final_ratio", "ratio", float64(len(s.mesh.Triangles))/float64(st.TrianglesCreated))
	steps := ms("step")
	m.set("delaunay.step_ms_p50", "ms", median(steps))
	m.set("delaunay.step_ms_max", "ms", maxOf(steps))

	// Publication: a Live build with nobody attached, against
	// ParTriangulate on the same (serve) points.
	par := median(s.parServe)
	tax := median(s.liveBare) - par
	m.set("publish.tax_s", "s", tax)
	m.set("publish.tax_ratio", "ratio", tax/par)
	m.set("publish.views", "count", median(s.views))

	// Reader path: service times from the query's child spans.
	loc, inc := ns("locate"), ns("incident")
	m.set("reader.locate_ns_p50", "ns", median(loc))
	m.set("reader.locate_ns_p99", "ns", quantile(loc, 0.99))
	m.set("reader.incident_ns_p50", "ns", orZero(median(inc)))
	m.set("reader.incident_ns_p99", "ns", orZero(quantile(inc, 0.99)))
	m.set("reader.faces_open_ns", "ns", median(ns("faces_open")))
	m.set("reader.queries", "count", float64(s.queries))
	m.set("reader.hit_ratio", "ratio", float64(s.hits)/float64(s.queries))
	m.set("reader.incident_ok_ratio", "ratio", float64(s.incOK)/float64(max(s.hits, 1)))
	m.set("reader.late_ms_max", "ms", s.lateMS)
	m.set("reader.views_seen", "count", median(s.viewsSeen))

	// checkpoint: capture on the publisher's path, saves on the saver.
	m.set("ckpt.capture_ms", "ms", median(ms("capture")))
	m.set("ckpt.save_full_ms", "ms", orZero(median(ms("save_full"))))
	m.set("ckpt.save_delta_ms", "ms", orZero(median(ms("save_delta"))))
	m.set("ckpt.bytes_full", "bytes", orZero(median(s.bytesFull)))
	m.set("ckpt.bytes_delta", "bytes", orZero(median(s.bytesDelta)))
	m.set("ckpt.offered", "count", median(s.offered))
	m.set("ckpt.saved", "count", median(s.saved))
	m.set("ckpt.dropped", "count", median(s.dropped))
	m.set("ckpt.restore_ms", "ms", median(ms("restore")))
	m.set("ckpt.resume_ms", "ms", median(ms("resume")))

	// core: the Type 2 runner under each solver.
	cp, sb, l := b.t2.cp, b.t2.seb, b.t2.lp
	cpSeq, sebSeq, lpSeq := median(cp.seqT), median(sb.seqT), median(l.seqT)
	m.set("cp.seq_s", "s", cpSeq)
	m.set("cp.speedup_p2", "x", cpSeq/median(cp.parT))
	cpSt := cp.st
	m.set("cp.work_per_n", "ratio", medianOf(cpSt, func(x closestpair.Stats) float64 {
		return float64(x.DistChecks+x.CellProbes) / float64(b.cfg.cpN)
	}))
	m.set("cp.special", "count", medianOf(cpSt, func(x closestpair.Stats) float64 { return float64(x.Special) }))
	m.set("cp.subrounds", "count", medianOf(cpSt, func(x closestpair.Stats) float64 { return float64(x.SubRounds) }))
	m.set("seb.seq_s", "s", sebSeq)
	m.set("seb.speedup_p2", "x", sebSeq/median(sb.parT))
	sebSt := sb.st
	m.set("seb.tests_per_n", "ratio", medianOf(sebSt, func(x seb.Stats) float64 {
		return float64(x.InDiskTests) / float64(b.cfg.sebN)
	}))
	m.set("seb.special", "count", medianOf(sebSt, func(x seb.Stats) float64 { return float64(x.Special) }))
	m.set("seb.subrounds", "count", medianOf(sebSt, func(x seb.Stats) float64 { return float64(x.SubRounds) }))
	m.set("seb.max_probe", "count", medianOf(sebSt, func(x seb.Stats) float64 { return float64(x.MaxProbe) }))
	m.set("lp.seq_s", "s", lpSeq)
	m.set("lp.speedup_p2", "x", lpSeq/median(l.parT))
	lpSt := l.st
	m.set("lp.side_tests_per_n", "ratio", medianOf(lpSt, func(x lp.Stats) float64 {
		return float64(x.SideTests) / float64(b.cfg.lpN)
	}))
	m.set("lp.special", "count", medianOf(lpSt, func(x lp.Stats) float64 { return float64(x.Special) }))
	m.set("lp.subrounds", "count", medianOf(lpSt, func(x lp.Stats) float64 { return float64(x.SubRounds) }))

	// Self time per span name, seconds per pass: what each call costs
	// net of the calls it made.
	self := tr.selfSeconds()
	for _, name := range selfNames {
		m.set("self."+name+"_s", "s", self[name])
	}

	// The trace itself: what it recorded and what a span costs, plus the
	// traced run's own end-to-end figures; their difference from the
	// untraced run of the same seed is the tracing overhead.
	m.set("trace.spans", "count", float64(len(tr.spans)))
	m.set("trace.span_ns", "ns", spanCost())
	m.set("traced.build_p2_s", "s", p2)
	m.set("traced.serve_build_s", "s", median(s.serveBuild))
	m.set("traced.query_p99_us", "us", median(s.queryP99))
	m.set("traced.cp_s", "s", median(cp.parT))
	return m
}

// selfNames are the span names whose self time the traced run reports.
var selfNames = []string{
	"build_p2", "build_p1", "build_seq", "serve_build", "step", "capture",
	"save_full", "save_delta", "restore", "resume", "live_bare", "par_serve", "query",
	"cp_p2", "seb_p2", "lp_p2", "cp_seq", "seb_seq", "lp_seq",
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}
