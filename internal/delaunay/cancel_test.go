package delaunay

import (
	"errors"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// meshEqual fails the test unless the two meshes are identical in
// triangles and stats — the determinism contract cancellation and
// rollback must preserve.
func meshEqual(t *testing.T, tag string, got, want *Mesh) {
	t.Helper()
	if len(got.Triangles) != len(want.Triangles) {
		t.Fatalf("%s: %d triangles, want %d", tag, len(got.Triangles), len(want.Triangles))
	}
	for i := range want.Triangles {
		if got.Triangles[i].V != want.Triangles[i].V {
			t.Fatalf("%s: triangle %d = %v, want %v", tag, i, got.Triangles[i].V, want.Triangles[i].V)
		}
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", tag, got.Stats, want.Stats)
	}
}

// drive steps the engine to completion with a nil token and returns the
// finished mesh.
func drive(t *testing.T, e *roundEngine) *Mesh {
	t.Helper()
	for {
		more, err := e.stepCancel(nil)
		if err != nil {
			t.Fatalf("nil-token stepCancel = %v", err)
		}
		if !more {
			return e.s.finish()
		}
	}
}

func TestStepCancelCleanAbortAndResume(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(7), 1200))
	want := ParTriangulate(pts)

	e := newRoundEngine(pts)
	for i := 0; i < 3; i++ {
		if more, err := e.stepCancel(nil); err != nil || !more {
			t.Fatalf("warmup round %d: more=%v err=%v", i, more, err)
		}
	}
	var c parallel.Canceler
	c.Cancel()
	roundsBefore, trisBefore := e.round, len(e.s.tris)
	if _, err := e.stepCancel(&c); !errors.Is(err, parallel.ErrCanceled) {
		t.Fatalf("canceled stepCancel = %v, want ErrCanceled", err)
	}
	if e.round != roundsBefore || len(e.s.tris) != trisBefore {
		t.Fatalf("clean abort mutated state: round %d→%d, tris %d→%d",
			roundsBefore, e.round, trisBefore, len(e.s.tris))
	}
	meshEqual(t, "resume after clean abort", drive(t, e), want)
}

// TestCancelAtBoundariesRollsBackAndResumes cancels at each armed phase
// boundary of a mid-run round. The engine must roll the round back
// entirely (round counter, triangle log, stats) and, resumed, produce the
// identical mesh — the retried round re-derives the same fires.
func TestCancelAtBoundariesRollsBackAndResumes(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(11), 1500))
	want := ParTriangulate(pts)
	for _, stage := range []int{stagePostA, stagePostB} {
		e := newRoundEngine(pts)
		var c parallel.Canceler
		fired := false
		e.boundaryHook = func(st int) {
			if st == stage && e.round == 4 && !fired {
				fired = true
				c.Cancel()
			}
		}
		var err error
		for {
			var more bool
			more, err = e.stepCancel(&c)
			if err != nil || !more {
				break
			}
		}
		if !fired {
			t.Fatalf("stage %d: run ended before round 4", stage)
		}
		if !errors.Is(err, parallel.ErrCanceled) {
			t.Fatalf("stage %d: err = %v, want ErrCanceled", stage, err)
		}
		if e.round != 3 {
			t.Fatalf("stage %d: round = %d after rollback, want 3", stage, e.round)
		}
		if e.rb.dirty {
			t.Fatalf("stage %d: engine still dirty after eager rollback", stage)
		}
		e.boundaryHook = nil
		got := drive(t, e)
		meshEqual(t, "resume after boundary cancel", got, want)
		if err := CheckDelaunay(got); err != nil {
			t.Fatalf("stage %d: resumed mesh invalid: %v", stage, err)
		}
	}
}

// TestPanicMidRoundLazyRollback is the delaunay half of the panic-safety
// satellite: a panic escaping a round (here from the post-B boundary,
// with the face map already mutated) leaves the engine dirty, and the
// next use repairs it — scratch is reset, not poisoned — yielding the
// identical mesh.
func TestPanicMidRoundLazyRollback(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(13), 1500))
	want := ParTriangulate(pts)
	for _, stage := range []int{stageRoundTop, stagePostA, stagePostB} {
		e := newRoundEngine(pts)
		fired := false
		e.boundaryHook = func(st int) {
			if st == stage && e.round >= 2 && !fired {
				fired = true
				panic("injected phase crash")
			}
		}
		func() {
			defer func() {
				if r := recover(); r != "injected phase crash" {
					t.Fatalf("stage %d: recovered %v", stage, r)
				}
			}()
			for {
				if more, err := e.stepCancel(nil); err != nil || !more {
					t.Fatalf("stage %d: run ended (more=%v err=%v) before the hook fired", stage, more, err)
				}
			}
		}()
		if stage != stageRoundTop && !e.rb.dirty {
			t.Fatalf("stage %d: engine not dirty after mid-round panic", stage)
		}
		e.boundaryHook = nil
		got := drive(t, e) // first step repairs lazily, then the run completes
		meshEqual(t, "resume after recovered panic", got, want)
	}
}

// TestCancelRaceResume races an asynchronous cancel against a full run:
// whatever phase the token lands in — including mid-loop with a partial
// fire subset installed — resuming must reach the identical mesh.
func TestCancelRaceResume(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(17), 4000))
	want := ParTriangulate(pts)
	for trial := 0; trial < 8; trial++ {
		e := newRoundEngine(pts)
		var c parallel.Canceler
		go func(d time.Duration) {
			time.Sleep(d)
			c.Cancel()
		}(time.Duration(trial*150) * time.Microsecond)
		var sawCancel bool
		for {
			more, err := e.stepCancel(&c)
			if err != nil {
				sawCancel = true
				break
			}
			if !more {
				break
			}
		}
		_ = sawCancel // timing-dependent; both outcomes must converge below
		meshEqual(t, "resume after racing cancel", drive(t, e), want)
	}
}

func TestParTriangulateCancel(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(23), 800))
	want := ParTriangulate(pts)

	if m, err := ParTriangulateCancel(pts, nil); err != nil {
		t.Fatalf("nil-token ParTriangulateCancel err = %v", err)
	} else {
		meshEqual(t, "nil token", m, want)
	}

	var live parallel.Canceler
	if m, err := ParTriangulateCancel(pts, &live); err != nil {
		t.Fatalf("live-token ParTriangulateCancel err = %v", err)
	} else {
		meshEqual(t, "live token", m, want)
	}

	var c parallel.Canceler
	c.Cancel()
	if m, err := ParTriangulateCancel(pts, &c); !errors.Is(err, parallel.ErrCanceled) || m != nil {
		t.Fatalf("pre-canceled: mesh=%v err=%v, want nil+ErrCanceled", m, err)
	}
}
