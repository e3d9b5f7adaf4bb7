package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Deterministic parallel execution (DESIGN.md §8): experiment cells run
// on a bounded worker pool. Every cell owns an isolated
// Network/Clock/RNG built by its own Setup call, so concurrent cells
// cannot observe each other; fill stores each cell's row at the cell's
// index and returns the rows once the pool drains, making the output
// bit-identical to a sequential run by construction.

// parallelism holds ForEach's configured worker budget; 0 means "default
// to GOMAXPROCS".
var parallelism atomic.Int64

// SetParallelism sets the worker budget. Values below 1 restore the
// default (GOMAXPROCS at time of use).
func SetParallelism(n int) {
	if n < 1 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the current worker budget.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(0..n-1) on min(n, Parallelism()) workers with atomic
// index stealing. Iterations must be independent. A panic in any iteration
// is re-raised on the caller's goroutine after all workers drain.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any] // the first panic a cell raised
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &r)
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
}

// fill runs row(0..n-1) on ForEach and returns the rows in cell order. It is
// how every table runs its cells.
func fill(n int, row func(i int) []string) [][]string {
	rows := make([][]string, n)
	ForEach(n, func(i int) { rows[i] = row(i) })
	return rows
}
