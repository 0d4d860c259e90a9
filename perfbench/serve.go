package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/rng"
)

// serve is the cmd/ridtd build loop rebuilt from the public entry
// points: one Live build at P=2 while an open-loop reader queries the
// published views and a background saver commits a checkpoint every
// ckptEvery committed rounds, then a restore and resume of the newest
// generation. It returns the bytes the build and the restore allocated.
func (b *bench) serve(parent, run int64) uint64 {
	dir := filepath.Join(b.cfg.workDir, fmt.Sprintf("ckpt-%d", run))
	defer os.RemoveAll(dir)
	w, err := checkpoint.NewWriter(dir)
	b.op("checkpoint.NewWriter", err)
	if err != nil {
		return 0
	}

	rd := newReader()
	var lv *delaunay.Live
	var sv *saver
	offered := 0
	alloc := b.measured(b.cfg.procs, func() {
		sv = b.startSaver(w, run)
		sp := b.tr.begin("serve_build", parent, run)
		t := time.Now()
		lv = delaunay.NewLive(b.in.serve)
		rd.start(b, lv, run)
		last := int32(-1)
		for {
			ss := b.tr.begin("step", sp.ID, run)
			more, err := lv.Step(nil)
			b.tr.end(ss)
			if err != nil {
				b.op("Live.Step", err)
				break
			}
			if r := lv.View().Round(); r != last && int(r)%b.cfg.ckptEvery == 0 {
				last = r
				cs := b.tr.begin("capture", sp.ID, run)
				st := lv.CaptureState()
				b.tr.end(cs)
				offered++
				sv.offer(st, cs.ID)
			}
			if !more {
				break
			}
		}
		b.s.serveBuild = append(b.s.serveBuild, time.Since(t).Seconds())
		b.tr.end(sp)
		rd.stop.Store(true)
		<-rd.done
		sv.close()
	})

	_, epoch := lv.ViewEpoch()
	b.s.views = append(b.s.views, float64(epoch))
	b.s.offered = append(b.s.offered, float64(offered))
	b.s.saved = append(b.s.saved, float64(sv.saved))
	b.s.dropped = append(b.s.dropped, float64(sv.dropped))
	b.op("Live (reader and saver)", b.finished(lv))
	if b.s.buildPred.InCircleCalls == 0 {
		b.s.buildPred = lv.CaptureState().Pred
	}
	rd.check(b, lv.View())

	if run == 1 {
		b.resumeMidBuild(dir)
	}
	// The completed build becomes the newest generation, as one full
	// image committed off the clock, so every restore below loads the
	// same state. Left to the saver, the newest generation is the last
	// capture it did not drop, at the end of a delta chain whose length
	// depends on the drops and on whether the seed's build ends before or
	// after the next capture round; each delta repeats the face map, and
	// restore_s varied by a fifth between seeds.
	_, err = w.Save(lv.CaptureState(), checkpoint.Meta{Seed: b.cfg.seed, Build: uint64(run)})
	b.op("checkpoint.Writer.Save (completed build)", err)
	if err != nil {
		return alloc
	}
	return alloc + b.restore(dir, parent, run)
}

// resumeMidBuild is crash recovery in the middle of a build, checked once
// per run, off the clock: checkpoint.Restore of the newest generation the
// saver committed, delaunay.ResumeLive, and the rounds the checkpoint
// missed; the resumed build must equal the uninterrupted one.
func (b *bench) resumeMidBuild(dir string) {
	st, _, err := checkpoint.Restore(dir)
	var lv *delaunay.Live
	if err == nil {
		lv, err = delaunay.ResumeLive(st)
	}
	for more := err == nil && !lv.View().Done(); more; {
		more, err = lv.Step(nil)
	}
	if err == nil {
		err = b.finished(lv)
	}
	b.op("checkpoint.Restore + delaunay.ResumeLive (mid-build)", err)
}

// restore is restarting after a crash, repeated cfg.restores times:
// checkpoint.Restore of the newest generation (the completed build's full
// image) and delaunay.ResumeLive, timed until the resumed build serves its
// first view, which must be the completed mesh. It returns the bytes the
// timed part allocated.
func (b *bench) restore(dir string, parent, run int64) uint64 {
	var alloc uint64
	for i := 0; i < b.cfg.restores; i++ {
		var lv *delaunay.Live
		var err error
		alloc += b.measured(b.cfg.procs, func() {
			sp := b.tr.begin("restore_resume", parent, run)
			t := time.Now()
			rs := b.tr.begin("restore", sp.ID, run)
			var st *delaunay.BuildState
			st, _, err = checkpoint.Restore(dir)
			b.tr.end(rs)
			if err == nil {
				ms := b.tr.begin("resume", sp.ID, run)
				lv, err = delaunay.ResumeLive(st)
				b.tr.end(ms)
			}
			b.s.restore = append(b.s.restore, time.Since(t).Seconds())
			b.tr.end(sp)
		})
		if err == nil {
			err = b.finished(lv)
		}
		b.op("checkpoint.Restore + delaunay.ResumeLive", err)
	}
	return alloc
}

// saver is ridtd's checkpoint saver: one goroutine fed through a
// one-slot channel; an offer made while it is busy is dropped, never
// waited for, so the publisher does not stall on disk.
type saver struct {
	b       *bench
	w       *checkpoint.Writer
	run     int64
	ch      chan saveReq
	done    chan struct{}
	dropped int // publisher-side
	saved   int // saver-side; read after done
}

type saveReq struct {
	st      *delaunay.BuildState
	capture int64 // span id of the capture that produced st
}

func (b *bench) startSaver(w *checkpoint.Writer, run int64) *saver {
	s := &saver{b: b, w: w, run: run, ch: make(chan saveReq, 1), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for req := range s.ch {
			s.save(req)
		}
	}()
	return s
}

func (s *saver) save(req saveReq) {
	sp := s.b.tr.begin("save", req.capture, s.run)
	path, kind, err := s.w.SaveAuto(req.st, checkpoint.Meta{Seed: s.b.cfg.seed, Build: uint64(s.run)})
	sp.Name = "save_" + kind.String()
	s.b.tr.end(sp)
	if err == nil {
		var fi os.FileInfo
		if fi, err = os.Stat(path); err == nil {
			s.saved++
			if kind == checkpoint.KindDelta {
				s.b.s.bytesDelta = append(s.b.s.bytesDelta, float64(fi.Size()))
			} else {
				s.b.s.bytesFull = append(s.b.s.bytesFull, float64(fi.Size()))
			}
		}
	}
	s.b.op("checkpoint.Writer.SaveAuto", err)
}

func (s *saver) offer(st *delaunay.BuildState, capture int64) {
	select {
	case s.ch <- saveReq{st: st, capture: capture}:
	default:
		s.dropped++
	}
}

func (s *saver) close() {
	close(s.ch)
	<-s.done
}

// reader is the open-loop query generator: query i is due at
// start + i/readerQPS whether or not earlier ones finished, and its
// latency runs from when it was due, so a stalled reader charges the
// stall to every query queued behind it.
type reader struct {
	stop atomic.Bool
	done chan struct{}

	// Written by the reader goroutine only; read after done.
	lat     []float64 // µs from due to answered
	lateMS  float64   // how late the generator ran, at most
	queries int64
	hitQ    []geom.Point
	hitID   []int32
	incOK   int64
	views   int
}

// readerCap pre-sizes the reader's sample buffers (16 s of queries at
// the default rate) so that growing them does not count as allocation
// by the build.
const readerCap = 1 << 15

func newReader() *reader {
	return &reader{
		done:  make(chan struct{}),
		lat:   make([]float64, 0, readerCap),
		hitQ:  make([]geom.Point, 0, readerCap),
		hitID: make([]int32, 0, readerCap),
	}
}

func (rd *reader) start(b *bench, lv *delaunay.Live, run int64) {
	go func() {
		defer close(rd.done)
		rd.loop(b, lv, run)
	}()
}

func (rd *reader) loop(b *bench, lv *delaunay.Live, run int64) {
	tr := b.tr
	sp := tr.begin("reader", 0, run)
	defer tr.end(sp)
	r := rng.New(b.cfg.seed ^ uint64(run)*0x9E3779B97F4A7C15)
	lo, hi := bounds(b.in.serve)
	interval := time.Duration(float64(time.Second) / b.cfg.readerQPS)
	var lastEpoch uint64
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if rd.stop.Load() {
			return
		}
		if late := time.Since(due).Seconds() * 1e3; late > rd.lateMS {
			rd.lateMS = late
		}
		q := geom.Point{X: lo.X + (hi.X-lo.X)*r.Float64(), Y: lo.Y + (hi.Y-lo.Y)*r.Float64()}
		qs := tr.begin("query", sp.ID, run)
		ls := tr.begin("locate", qs.ID, run)
		v, ep := lv.ViewEpoch()
		id, ok := v.Locate(q)
		tr.end(ls)
		fo := tr.begin("faces_open", qs.ID, run)
		fs := lv.Faces()
		tr.end(fo)
		if ok {
			is := tr.begin("incident", qs.ID, run)
			cs := v.Corners(id)
			_, _, iok := fs.Incident(cs[0], cs[1])
			tr.end(is)
			if iok {
				rd.incOK++
			}
			rd.hitQ = append(rd.hitQ, q)
			rd.hitID = append(rd.hitID, id)
		}
		fs.Close()
		tr.end(qs)
		rd.lat = append(rd.lat, time.Since(due).Seconds()*1e6)
		rd.queries++
		if ep != lastEpoch {
			rd.views++
			lastEpoch = ep
		}
	}
}

// bounds is the input's bounding box padded by 5% on each side, so some
// queries land outside the mesh.
func bounds(pts []geom.Point) (lo, hi geom.Point) {
	lo, hi = pts[0], pts[0]
	for _, p := range pts {
		lo.X, lo.Y = min(lo.X, p.X), min(lo.Y, p.Y)
		hi.X, hi.Y = max(hi.X, p.X), max(hi.Y, p.Y)
	}
	dx, dy := 0.05*(hi.X-lo.X), 0.05*(hi.Y-lo.Y)
	return geom.Point{X: lo.X - dx, Y: lo.Y - dy}, geom.Point{X: hi.X + dx, Y: hi.Y + dy}
}

// check accounts the reader's queries: a query fails when Locate
// reported a triangle that does not contain the query point (by exact
// Orient2D against the view's corners; triangle corners never change
// once created, so the last view answers for every earlier one).
func (rd *reader) check(b *bench, v *delaunay.MeshView) {
	bad := 0
	var first error
	for i, q := range rd.hitQ {
		c := v.Corners(rd.hitID[i])
		pa, pb, pc := v.Point(c[0]), v.Point(c[1]), v.Point(c[2])
		if geom.Orient2D(pa, pb, q) < 0 || geom.Orient2D(pb, pc, q) < 0 || geom.Orient2D(pc, pa, q) < 0 {
			bad++
			if first == nil {
				first = fmt.Errorf("triangle %d does not contain %v", rd.hitID[i], q)
			}
		}
	}
	if rd.queries == 0 {
		b.ops("reader", 1, 1, errors.New("no query was issued during the build"))
	}
	b.ops("MeshView.Locate", rd.queries, int64(bad), first)
	if len(rd.lat) > 0 {
		b.s.queryP50 = append(b.s.queryP50, quantile(rd.lat, 0.50))
		b.s.queryP99 = append(b.s.queryP99, quantile(rd.lat, 0.99))
	}
	b.s.queries += rd.queries
	b.s.hits += int64(len(rd.hitQ))
	b.s.incOK += rd.incOK
	b.s.lateMS = max(b.s.lateMS, rd.lateMS)
	b.s.viewsSeen = append(b.s.viewsSeen, float64(rd.views))
}
