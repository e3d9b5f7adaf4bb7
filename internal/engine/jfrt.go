package engine

import (
	"sync"

	"cqjoin/internal/chord"
	"cqjoin/internal/obs"
)

// jfrtCache is the Join Fingers Routing Table of Section 4.7.1. A rewriter
// repeatedly reindexes rewritten queries to the same evaluators: the same
// (relation, attribute, value) identifier recurs whenever tuples carry
// recurring join values. The JFRT remembers the node that took delivery for
// each value-level identifier the rewriter has sent to, so a repeat reindexing
// costs a single hinted hop instead of an O(log N) overlay lookup
// (chord.Node.SendHinted). Entries are soft state, and whether one still holds
// is not the rewriter's to know: the node the message lands on decides, and
// the rewriter remembers whoever took delivery in the end. Bounded like
// idCache: full, it is dropped and restarted.
type jfrtCache struct {
	mu      sync.Mutex
	entries map[string]*chord.Node
	hits    int64
	misses  int64
}

// jfrtMax bounds one rewriter's table.
const jfrtMax = 1 << 16

// lookup returns the evaluator remembered for the value-level input.
func (c *jfrtCache) lookup(input string) (*chord.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[input]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return n, ok
}

// store records the node that took delivery for input; a full table is
// restarted for it, counted in resets. The table is made on the first store:
// with the JFRT off, a node's stays nil, which reads as empty.
func (c *jfrtCache) store(input string, n *chord.Node, resets *obs.CounterVec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[input]; !ok && len(c.entries) >= jfrtMax {
		c.entries = nil
		resets.Add("jfrt.reset", 1)
	}
	if c.entries == nil {
		c.entries = make(map[string]*chord.Node)
	}
	c.entries[input] = n
}

// stats reports hit/miss counts, used by the JFRT effectiveness bench.
func (c *jfrtCache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}

// JFRTStats aggregates Join Fingers Routing Table statistics across all
// nodes: total cache hits, misses and resident entries.
func (e *Engine) JFRTStats() (hits, misses int64, entries int) {
	e.mu.Lock()
	states := make([]*nodeState, 0, len(e.states))
	for _, st := range e.states {
		states = append(states, st)
	}
	e.mu.Unlock()
	for _, st := range states {
		h, m, s := st.jfrt.stats()
		hits += h
		misses += m
		entries += s
	}
	return hits, misses, entries
}
