// Package lockdep is the module's mutexes: sync's, plus, inside a test
// binary, a check of the two rules every lock keeps. No lock is held across
// an overlay or transport send, and no two locks are taken in opposite
// orders. It checks them on the executions the tests already run, as
// Linux's lockdep does (Documentation/locking/lockdep-design.rst).
//
// A lock's class is its field: Mutex[C] and RWMutex[C] name it by the type
// C, an empty struct declared beside the field, so the class costs no byte
// and every instance of the field shares it. Only when testing.Testing() is
// true does each acquisition record its class in its goroutine's held set,
// and an order edge from every class already held. A panic then fails the
// test, before any deadlock, with the stacks involved, when
//
//   - a send (Sending) starts while its goroutine holds a class that does
//     not declare HeldAcrossSends;
//   - a new edge closes a cycle in the order graph;
//   - a goroutine takes a class it already holds;
//   - a goroutine releases a class it does not hold.
//
// Outside tests each method is one predictable branch in front of sync's.
package lockdep

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// on is read once: only a test binary, on an architecture whose goroutine
// identity getg reads, tracks.
var on = testing.Testing() && haveG

// Mutex is a sync.Mutex of class C.
type Mutex[C comparable] struct{ mu sync.Mutex }

func (m *Mutex[C]) Lock()   { taking[C](); m.mu.Lock() }
func (m *Mutex[C]) Unlock() { leaving[C](); m.mu.Unlock() }

// RWMutex is a sync.RWMutex of class C. A read lock holds the class as a
// write lock does.
type RWMutex[C comparable] struct{ mu sync.RWMutex }

func (m *RWMutex[C]) Lock()    { taking[C](); m.mu.Lock() }
func (m *RWMutex[C]) Unlock()  { leaving[C](); m.mu.Unlock() }
func (m *RWMutex[C]) RLock()   { taking[C](); m.mu.RLock() }
func (m *RWMutex[C]) RUnlock() { leaving[C](); m.mu.RUnlock() }

// taking and leaving are a goroutine's acquisition and release of a lock of
// class C: under test they update its held set, and elsewhere they are one
// branch.
func taking[C comparable]() {
	if on {
		acquire(*new(C))
	}
}

func leaving[C comparable]() {
	if on {
		release(*new(C))
	}
}

// HeldAcrossSends is what a class type declares whose lock is held across
// sends by design; the method returns the reason. The class still takes
// part in the order graph.
type HeldAcrossSends interface{ HeldAcrossSends() string }

// Sending marks the start of a send that may block on another node or
// process; what names it. Under test it fails if the goroutine holds a
// class that does not declare HeldAcrossSends.
func Sending(what string) {
	if on {
		sending(what)
	}
}

// maxClasses bounds the order graph, so a class's successors are a bitset.
const maxClasses = 128

type class struct {
	name   string
	index  int
	exempt string                         // why it may be held across a send, if it may
	after  [maxClasses / 64]atomic.Uint64 // classes taken while this one was held
}

var (
	classes sync.Map // a class type's zero value -> its *class

	graphMu sync.Mutex // orders registration and new edges
	byIndex []*class
	edges   = map[[2]int]string{} // {from, to} -> the stack that first took the edge
)

// classOf returns the class of key, the zero value of a class type.
func classOf(key any) *class {
	if c, ok := classes.Load(key); ok {
		return c.(*class)
	}
	graphMu.Lock()
	defer graphMu.Unlock()
	if c, ok := classes.Load(key); ok {
		return c.(*class)
	}
	if len(byIndex) == maxClasses {
		panic(fmt.Sprintf("lockdep: more than %d lock classes", maxClasses))
	}
	c := &class{name: fmt.Sprintf("%T", key), index: len(byIndex)}
	if e, ok := key.(HeldAcrossSends); ok {
		c.exempt = e.HeldAcrossSends()
	}
	byIndex = append(byIndex, c)
	classes.Store(key, c)
	return c
}

// held is one goroutine's held classes, innermost last. The runtime reuses
// a finished goroutine's g, and so its set: mu orders the new goroutine
// after the old one.
type held struct {
	mu      sync.Mutex
	classes []*class
}

// goroutines maps each g a locking goroutine has run on to its held set, by
// open addressing; an entry stays, since the runtime reuses g's.
var goroutines [1 << 14]struct {
	g   atomic.Uintptr
	set atomic.Pointer[held]
}

// locked runs fn on the calling goroutine's held set under the set's lock,
// and panics with the report fn returns, if any, once the lock is released.
func locked(fn func(h *held) string) {
	h := current()
	h.mu.Lock()
	report := fn(h)
	h.mu.Unlock()
	if report != "" {
		panic("lockdep: " + report)
	}
}

// current returns the calling goroutine's held set. Only the goroutine on g
// claims g's entry, so a claimed entry it finds is its own.
func current() *held {
	g := getg()
	i := uint64(g) * 0x9e3779b97f4a7c15 >> 50 // the table's 14 bits
	for range len(goroutines) {
		e := &goroutines[i]
		if e.g.Load() == g {
			return e.set.Load()
		}
		if e.g.CompareAndSwap(0, g) {
			h := new(held)
			e.set.Store(h)
			return h
		}
		i = (i + 1) % uint64(len(goroutines))
	}
	panic(fmt.Sprintf("lockdep: more than %d goroutines have taken locks", len(goroutines)))
}

func acquire(key any) {
	c := classOf(key)
	locked(func(h *held) string {
		for _, p := range h.classes {
			if p == c {
				return fmt.Sprintf("taking %s, which this goroutine already holds", c.name)
			}
		}
		for _, p := range h.classes {
			if !p.before(c) {
				if report := order(p, c); report != "" {
					return report
				}
			}
		}
		h.classes = append(h.classes, c)
		return ""
	})
}

func release(key any) {
	c := classOf(key)
	locked(func(h *held) string {
		for i := len(h.classes) - 1; i >= 0; i-- {
			if h.classes[i] == c {
				h.classes = append(h.classes[:i], h.classes[i+1:]...)
				return ""
			}
		}
		return fmt.Sprintf("releasing %s, which this goroutine does not hold", c.name)
	})
}

func sending(what string) {
	locked(func(h *held) string {
		for _, p := range h.classes {
			if p.exempt == "" {
				return fmt.Sprintf("%s while holding %s", what, p.name)
			}
		}
		return ""
	})
}

// order records the edge a→b, or reports the cycle it would close with the
// stack that first took each edge of the path back from b to a.
func order(a, b *class) string {
	graphMu.Lock()
	defer graphMu.Unlock()
	if path := pathFrom(b, a, map[*class]bool{}); path != nil {
		var s strings.Builder
		fmt.Fprintf(&s, "taking %s while holding %s closes a lock-order cycle:", b.name, a.name)
		for i := 0; i+1 < len(path); i++ {
			fmt.Fprintf(&s, "\n\n%s was taken while holding %s at:\n%s",
				path[i+1].name, path[i].name, edges[[2]int{path[i].index, path[i+1].index}])
		}
		return s.String()
	}
	if _, ok := edges[[2]int{a.index, b.index}]; !ok {
		edges[[2]int{a.index, b.index}] = stack()
		a.after[b.index/64].Store(a.after[b.index/64].Load() | 1<<(b.index%64))
	}
	return ""
}

// pathFrom returns a path of edges from a to b, or nil.
func pathFrom(a, b *class, seen map[*class]bool) []*class {
	if a == b {
		return []*class{a}
	}
	seen[a] = true
	for _, next := range byIndex {
		if !seen[next] && a.before(next) {
			if rest := pathFrom(next, b, seen); rest != nil {
				return append([]*class{a}, rest...)
			}
		}
	}
	return nil
}

// before reports whether the edge c→d is recorded.
func (c *class) before(d *class) bool {
	return c.after[d.index/64].Load()&(1<<(d.index%64)) != 0
}

func stack() string {
	buf := make([]byte, 16<<10)
	return string(buf[:runtime.Stack(buf, false)])
}
