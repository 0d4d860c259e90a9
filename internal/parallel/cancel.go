package parallel

import (
	"errors"
	"sync/atomic"
)

// Cooperative cancellation for the loop primitives.
//
// A Canceler is a level-triggered token: once Cancel is called, every
// loop observing it (ForGrainCancel, BlocksNCancel) stops claiming new
// work, drains the unclaimed remainder, and returns ErrCanceled.
// Cancellation is cooperative and bounded — each participant finishes at
// most the grain's worth of iterations it had already started, so at most
// MaxProcs()*grain iterations execute after Cancel returns (plus the
// chunks other participants had claimed but not begun, each of which is
// abandoned at its next grain boundary). Results of iterations that did
// run are exactly what the sequential loop would have produced for those
// indices: cancellation never perturbs which iteration maps to which
// chunk, only how many chunks run.
//
// The token is a single atomic word. Checking it is a nil-safe atomic
// load, Cancel is an atomic store; both are safe from any goroutine,
// including loop bodies and signal handlers. A nil *Canceler is a valid
// "never canceled" token, and it is what the plain loops (For, ForGrain,
// Blocks, BlocksN) pass: every loop runs on the one cancellable path.
//
// Panic propagation is unchanged by cancellation: if a body panics, the
// first panic value is re-raised on the caller even if the token was also
// canceled — a panic is an answer, cancellation is the lack of one.

// ErrCanceled is returned by the cancellable loops when the loop's token
// was canceled by the time the loop returned. The loop may still have
// completed every iteration (cancellation racing completion); callers
// treating ErrCanceled as "results are partial" are always safe.
var ErrCanceled = errors.New("parallel: loop canceled")

// Canceler is a cooperative cancellation token shared by a loop's
// participants. The zero value is ready to use. A Canceler may be reused
// across loops (cancel applies to all loops observing it) but not reset:
// cancellation is one-way.
type Canceler struct {
	flag atomic.Uint32
}

// Cancel marks the token canceled. Idempotent, safe from any goroutine,
// and safe on a nil receiver (no-op).
func (c *Canceler) Cancel() {
	if c != nil {
		c.flag.Store(1)
	}
}

// Canceled reports whether Cancel has been called. Safe on a nil
// receiver, where it reports false forever.
//
//ridt:noalloc
func (c *Canceler) Canceled() bool {
	return c != nil && c.flag.Load() != 0
}

// Err is the exit contract every cancellable loop and engine shares:
// ErrCanceled iff the token is canceled, nil otherwise (always nil on a
// nil receiver).
func (c *Canceler) Err() error {
	if c.Canceled() {
		return ErrCanceled
	}
	return nil
}

// ForGrainCancel is ForGrain with a cancellation token. The token is
// checked between grain-sized runs of iterations inside each chunk, so a
// participant executes at most ~grain iterations past observing
// cancellation regardless of chunk size. grain <= 0 selects DefaultGrain.
// A nil token never cancels, and the loop then returns nil.
func ForGrainCancel(lo, hi, grain int, c *Canceler, body func(i int)) error {
	n := hi - lo
	if n <= 0 {
		return c.Err()
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	nb := chunksFor(n, grain)
	if nb <= 1 || MaxProcs() == 1 {
		runSpan(lo, hi, grain, c, body)
		return c.Err()
	}
	runLoop(nb, c, func(b int) {
		s, e := chunkBounds(lo, hi, b, nb)
		runSpan(s, e, grain, c, body)
	})
	return c.Err()
}

// runSpan runs body over [lo, hi) in grain-sized runs, re-checking the
// token before each run. It is the sub-chunk check loop that turns
// per-chunk cancellation into per-grain cancellation; a nil token, which
// never cancels, runs the span as one run.
func runSpan(lo, hi, grain int, c *Canceler, body func(i int)) {
	if c == nil {
		grain = hi - lo
	}
	for s := lo; s < hi; {
		if c.Canceled() {
			return
		}
		e := min(s+grain, hi)
		for i := s; i < e; i++ {
			body(i)
		}
		s = e
	}
}

// BlocksNCancel is BlocksN with a cancellation token, checked before each
// block. The partition is pinned by the caller exactly as in BlocksN:
// block b, when it runs, covers the same index range cancellation or not.
// Blocks are opaque to the scheduler, so cancellation granularity is one
// block: a body that runs long should poll c.Canceled itself.
func BlocksNCancel(lo, hi, nb int, c *Canceler, body func(b, lo, hi int)) error {
	n := hi - lo
	if n <= 0 {
		return c.Err()
	}
	runBlocks(lo, hi, min(max(nb, 1), n), c, body)
	return c.Err()
}

// runBlocks runs body over [lo, hi) split into exactly nb blocks,
// checking the token before each block.
func runBlocks(lo, hi, nb int, c *Canceler, body func(b, lo, hi int)) {
	if nb == 1 || MaxProcs() == 1 {
		for b := 0; b < nb && !c.Canceled(); b++ {
			s, e := chunkBounds(lo, hi, b, nb)
			body(b, s, e)
		}
		return
	}
	runLoop(nb, c, func(b int) {
		s, e := chunkBounds(lo, hi, b, nb)
		body(b, s, e)
	})
}
