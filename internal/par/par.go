// Package par provides the deterministic parallel-for primitives for work
// that is already independent: fixed-grain chunked loops and ordered
// reductions for the once-per-job row-assignment and Tetris scans, and a
// priority race for the resilient cascade. The MMSIM iteration itself is
// serial (see DESIGN.md, "Parallel decomposition & determinism").
//
// The contract every helper obeys is that the result is a pure function of
// the input and the chunking — never of the worker count or of scheduling
// order. Chunk boundaries depend only on (n, grain); each chunk writes a
// disjoint region or produces a partial that is combined in chunk order.
// Running with 1 worker, 8 workers, or GOMAXPROCS workers therefore yields
// bit-identical floating-point results, which is what lets the regression
// suite pin one set of golden metrics for every worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a Workers knob to a concrete worker count: n <= 0 selects
// GOMAXPROCS (use every core), any positive n is taken literally (1 = run
// serial on the calling goroutine).
func Resolve(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Default grain sizes for the once-per-job scans. Grains are fixed
// constants — never derived from the worker count — to keep chunk
// boundaries, and therefore all floating-point partials, independent of
// parallelism.
const (
	// GrainRows is the chunk size for per-placement-row loops.
	GrainRows = 256
	// GrainCells is the chunk size for per-cell loops (row assignment,
	// snapping).
	GrainCells = 512
)

// For runs fn over the index range [0, n) partitioned into fixed contiguous
// chunks of size grain, using at most `workers` goroutines (0 = GOMAXPROCS).
// fn(lo, hi) must only write state owned by its chunk. When the work fits in
// one chunk or workers resolves to 1, fn runs on the calling goroutine with
// the same chunk boundaries. Panics in fn propagate to the caller.
func For(workers, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	w := Resolve(workers)
	if w > chunks {
		w = chunks
	}
	if w <= 1 {
		for lo := 0; lo < n; lo += grain {
			fn(lo, minInt(lo+grain, n))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicVal any
	havePanic := false
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if !havePanic {
						havePanic, panicVal = true, r
					}
					panicMu.Unlock()
				}
			}()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * grain
				fn(lo, minInt(lo+grain, n))
			}
		}()
	}
	wg.Wait()
	if haveP := func() bool { panicMu.Lock(); defer panicMu.Unlock(); return havePanic }(); haveP {
		panic(panicVal)
	}
}

// ReduceMax computes the maximum of per-chunk partials over [0, n). Each
// chunk's partial is produced by fn(lo, hi); partials are combined in chunk
// order. Because max is insensitive to combination order this is identical
// to a serial scan for any worker count; the ordered combine additionally
// keeps NaN handling (max keeps the first operand on NaN comparisons
// returning false) reproducible. Returns 0 for n <= 0 — callers whose
// partials can be negative must encode that in fn.
func ReduceMax(workers, n, grain int, fn func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	partials := make([]float64, chunks)
	For(workers, n, grain, func(lo, hi int) {
		partials[lo/grain] = fn(lo, hi)
	})
	m := partials[0]
	for _, p := range partials[1:] {
		if p > m {
			m = p
		}
	}
	return m
}

// ReduceErr runs fn over fixed chunks and returns the error produced by the
// lowest-indexed chunk (the same error a serial left-to-right scan would
// surface first), or nil. fn should stop at its first error so the reported
// error is the lowest-indexed failure within the chunk too.
func ReduceErr(workers, n, grain int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	errs := make([]error, chunks)
	For(workers, n, grain, func(lo, hi int) {
		errs[lo/grain] = fn(lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
