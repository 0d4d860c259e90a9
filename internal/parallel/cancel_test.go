package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestCancelerNilSafe(t *testing.T) {
	var c *Canceler
	c.Cancel() // must not panic
	if c.Canceled() || c.Err() != nil {
		t.Fatalf("nil canceler reports canceled (err %v)", c.Err())
	}
	if err := ForGrainCancel(0, 100, 0, nil, func(int) {}); err != nil {
		t.Fatalf("nil-token ForGrainCancel = %v", err)
	}
	if err := BlocksNCancel(0, 100, 4, nil, func(int, int, int) {}); err != nil {
		t.Fatalf("nil-token BlocksNCancel = %v", err)
	}
	var live Canceler
	if live.Err() != nil {
		t.Fatalf("live token Err = %v", live.Err())
	}
	live.Cancel()
	if !errors.Is(live.Err(), ErrCanceled) {
		t.Fatalf("canceled token Err = %v, want ErrCanceled", live.Err())
	}
}

func TestForCancelCompletesWhenNotCanceled(t *testing.T) {
	var c Canceler
	var ran atomic.Int64
	if err := ForGrainCancel(0, 10000, 0, &c, func(int) { ran.Add(1) }); err != nil {
		t.Fatalf("uncanceled loop = %v", err)
	}
	if ran.Load() != 10000 {
		t.Fatalf("ran %d of 10000", ran.Load())
	}
	// The block form covers the whole range too.
	ran.Store(0)
	if err := BlocksNCancel(0, 5000, NumBlocks(5000, 64), &c, func(_, lo, hi int) {
		ran.Add(int64(hi - lo))
	}); err != nil {
		t.Fatalf("uncanceled BlocksNCancel = %v", err)
	}
	if ran.Load() != 5000 {
		t.Fatalf("BlocksNCancel covered %d of 5000", ran.Load())
	}
}

func TestForCancelAlreadyCanceled(t *testing.T) {
	var c Canceler
	c.Cancel()
	var ran atomic.Int64
	err := ForGrainCancel(0, 10000, 0, &c, func(int) { ran.Add(1) })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-canceled loop ran %d iterations", ran.Load())
	}
}

// TestCancelBound is the contract the engines rely on: after Cancel
// returns, at most MaxProcs() participants each finish at most one
// grain-sized run, so post-cancel executions are bounded by P*grain.
func TestCancelBound(t *testing.T) {
	const n, grain = 1 << 20, 64
	for trial := 0; trial < 20; trial++ {
		var c Canceler
		var ran, postCancel atomic.Int64
		err := ForGrainCancel(0, n, grain, &c, func(i int) {
			if ran.Add(1) == 1000 {
				c.Cancel()
			}
			if c.Canceled() {
				postCancel.Add(1)
			}
		})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if ran.Load() == int64(n) {
			t.Fatalf("trial %d: cancellation never cut the loop short", trial)
		}
		// Every iteration counted in postCancel ran on a participant that
		// had started its current grain run before observing the token;
		// each participant contributes at most one grain run.
		if limit := int64(MaxProcs() * grain); postCancel.Load() > limit {
			t.Fatalf("trial %d: %d iterations after cancel, bound %d",
				trial, postCancel.Load(), limit)
		}
	}
}

func TestCancelErrIffCanceledAtExit(t *testing.T) {
	// Cancellation racing completion: the loop may finish every iteration
	// and still report ErrCanceled; it must never report nil after cancel.
	var c Canceler
	var ran atomic.Int64
	err := ForGrainCancel(0, 4096, 1, &c, func(i int) {
		ran.Add(1)
		if i == 4095 {
			c.Cancel() // cancel on (possibly) the last iteration
		}
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v after in-body cancel, want ErrCanceled", err)
	}
}

func TestPoolReusableAfterCancel(t *testing.T) {
	var c Canceler
	ForGrainCancel(0, 1<<20, 0, &c, func(i int) {
		if i == 0 {
			c.Cancel()
		}
	})
	// A token canceled from outside the loop (a deadline timer) cuts a
	// loop of slow bodies short just the same.
	var deadline Canceler
	timer := time.AfterFunc(5*time.Millisecond, deadline.Cancel)
	defer timer.Stop()
	start := time.Now()
	err := ForGrainCancel(0, 1<<30, 1, &deadline, func(int) {
		time.Sleep(100 * time.Microsecond)
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("deadline loop = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline loop ran %v, cancellation did not bite", elapsed)
	}
	// The pool must be fully functional for the next, unrelated loop.
	var ran atomic.Int64
	For(0, 100000, func(int) { ran.Add(1) })
	if ran.Load() != 100000 {
		t.Fatalf("post-cancel loop ran %d of 100000", ran.Load())
	}
}

func TestCancelNestedLoops(t *testing.T) {
	// Cancel an outer loop whose body runs inner (plain) loops: the inner
	// loops complete normally — cancellation applies to loops observing
	// the token, not to everything on the pool.
	var c Canceler
	var inner atomic.Int64
	err := BlocksNCancel(0, 64, 64, &c, func(b, lo, hi int) {
		For(0, 1000, func(int) { inner.Add(1) })
		if b == 0 {
			c.Cancel()
		}
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := inner.Load(); got%1000 != 0 || got == 0 {
		t.Fatalf("inner loops ran %d iterations, want a positive multiple of 1000", got)
	}
}

func TestCancelPanicStillPropagates(t *testing.T) {
	var c Canceler
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the body's panic value", r)
		}
		// And the pool survives, as with plain-loop panics.
		var ran atomic.Int64
		For(0, 1000, func(int) { ran.Add(1) })
		if ran.Load() != 1000 {
			t.Fatalf("post-panic loop ran %d of 1000", ran.Load())
		}
	}()
	ForGrainCancel(0, 1<<16, 1, &c, func(i int) {
		if i == 100 {
			c.Cancel()
			panic("boom")
		}
	})
	t.Fatal("loop returned without panicking")
}

func TestBlocksCancelPartial(t *testing.T) {
	var c Canceler
	c.Cancel()
	var called atomic.Bool
	err := BlocksNCancel(0, 1<<16, NumBlocks(1<<16, 64), &c, func(_, lo, hi int) { called.Store(true) })
	if !errors.Is(err, ErrCanceled) || called.Load() {
		t.Fatalf("pre-canceled BlocksNCancel: err=%v called=%v", err, called.Load())
	}
}

func TestBlocksNCancelPinnedPartition(t *testing.T) {
	// Blocks that do run must cover the same ranges BlocksN would give
	// them: cancellation changes how many blocks run, never which indices
	// a block owns.
	const n, nb = 10000, 16
	want := make([][2]int, nb)
	BlocksN(0, n, nb, func(b, lo, hi int) { want[b] = [2]int{lo, hi} })
	var c Canceler
	var mu atomic.Int64
	got := make([][2]int, nb)
	seen := make([]atomic.Bool, nb)
	BlocksNCancel(0, n, nb, &c, func(b, lo, hi int) {
		got[b] = [2]int{lo, hi}
		seen[b].Store(true)
		if mu.Add(1) == 3 {
			c.Cancel()
		}
	})
	for b := 0; b < nb; b++ {
		if seen[b].Load() && got[b] != want[b] {
			t.Fatalf("block %d ran over %v, BlocksN gives %v", b, got[b], want[b])
		}
	}
}
