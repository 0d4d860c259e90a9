// Package parallel is a stand-in with the real loop-primitive signatures
// so the golden files typecheck without importing the module itself; the
// analyzers match it by package name.
package parallel

func For(lo, hi int, body func(i int)) {}

func ForGrain(lo, hi, grain int, body func(i int)) {}

func Blocks(lo, hi, grain int, body func(lo, hi int)) {}

func BlocksN(lo, hi, nb int, body func(b, lo, hi int)) {}

// Canceler stands in for the real cancellation token; parclosure matches
// callee names only, so the type need not match — the closures'
// positions must.
type Canceler struct{}

func ForGrainCancel(lo, hi, grain int, c *Canceler, body func(i int)) error { return nil }

func BlocksNCancel(lo, hi, nb int, c *Canceler, body func(b, lo, hi int)) error { return nil }

func PackInto[T any](dst []T, xs []T, keep func(i int) bool, counts []int) ([]T, []int) {
	return dst, counts
}
