package engine

import (
	"sync"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
)

// jfrtCache is the Join Fingers Routing Table of Section 4.7.1. A rewriter
// repeatedly reindexes rewritten queries to the same evaluators: the same
// (relation, attribute, value) identifier recurs whenever tuples carry
// recurring join values. The JFRT caches the evaluator node responsible
// for each value-level identifier the rewriter has already looked up, so a
// repeat reindexing costs a single direct hop instead of an O(log N)
// overlay lookup. Entries are soft state: a cached node that has left the
// overlay, or that a join or a move has since relieved of the identifier, is
// dropped and the next reindexing repopulates the entry through a normal
// lookup.
type jfrtCache struct {
	mu      sync.Mutex
	entries map[string]*chord.Node
	hits    int64
	misses  int64
}

func newJFRTCache() *jfrtCache {
	return &jfrtCache{entries: make(map[string]*chord.Node)}
}

// lookup returns the cached evaluator for the value-level input, whose
// identifier is target, when it is still alive and still owns target: sent to
// a node that has handed the identifier's tuples on, a rewrite would be
// stored where no tuple arrives.
func (c *jfrtCache) lookup(input string, target id.ID) (*chord.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[input]
	if !ok {
		c.misses++
		return nil, false
	}
	if !n.Alive() || !n.OwnsKey(target) {
		delete(c.entries, input)
		c.misses++
		return nil, false
	}
	c.hits++
	return n, true
}

// store records the evaluator learned from a routed lookup.
func (c *jfrtCache) store(input string, n *chord.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[input] = n
}

// invalidate drops a cached evaluator that failed to answer a direct send,
// forcing the next reindexing of the input through a DHT lookup.
func (c *jfrtCache) invalidate(input string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, input)
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
