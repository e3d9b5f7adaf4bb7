// Package a exercises the call-graph builder directly: recursion and
// mutual recursion terminate the fixpoint, method values become value
// edges, interface dispatch fans out to every module implementation, and
// lock summaries propagate transitively.
package a

import "sync"

// fact is directly recursive: its callee set contains itself.
func fact(n int) int {
	if n <= 1 {
		return 1
	}
	return n * fact(n-1)
}

// even and odd are mutually recursive.
func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

// doer is dispatched through class-hierarchy analysis: calling do on the
// interface reaches both implementations.
type doer interface{ do() }

type impl1 struct{}
type impl2 struct{}

func (impl1) do() {}
func (impl2) do() {}

func dispatch(d doer) {
	d.do()
}

// worker carries the lock summary cases: step is lock-balanced (the
// deferred unlock nets the acquisition to zero), and lockChain reaches
// the acquisition two calls away.
type worker struct {
	mu sync.Mutex
}

func (w *worker) step() {
	w.mu.Lock()
	defer w.mu.Unlock()
}

// takeValue references step as a method value without calling it.
func takeValue(w *worker) func() {
	return w.step
}

func lockChain(w *worker) {
	helper(w)
}

func helper(w *worker) {
	w.step()
}
