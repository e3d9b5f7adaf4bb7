package engine

import (
	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/lockdep"
	"cqjoin/internal/obs"
)

// jfrtCache is the Join Fingers Routing Table of Section 4.7.1. A rewriter
// repeatedly reindexes rewritten queries to the same evaluators: the same
// (relation, attribute, value) identifier recurs whenever tuples carry
// recurring join values. The JFRT remembers the node that took delivery for
// each value-level identifier the rewriter has sent to, so a repeat reindexing
// costs a single hinted hop instead of an O(log N) overlay lookup
// (chord.Deliverable.Hint). Entries are soft state, and whether one still holds
// is not the rewriter's to know: the node the message lands on decides, and
// the rewriter remembers whoever took delivery in the end. It is keyed by
// the identifier the rewriter sends to, and bounded by jfrtMax: full, it is
// dropped and restarted.
type jfrtCache struct {
	mu      lockdep.Mutex[jfrtCacheMu]
	entries map[id.ID]*chord.Node
}

type jfrtCacheMu struct{} // jfrtCache.mu's lock class

// jfrtMax bounds one rewriter's table.
const jfrtMax = 1 << 16

// lookup returns the evaluator remembered for the value-level identifier, nil
// for none.
func (c *jfrtCache) lookup(target id.ID) *chord.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[target]
}

// learn counts each deliverable of batch, which went hinted from the table,
// as a hit, a stale entry or a miss in hints, and remembers who took it,
// got[i], where that is news.
func (c *jfrtCache) learn(batch []chord.Deliverable, got []*chord.Node, hints *obs.CounterVec) {
	for i, d := range batch {
		switch {
		case d.Hint == nil:
			hints.Add("jfrt.miss", 1)
		case got[i] == d.Hint:
			hints.Add("jfrt.hit", 1)
			continue
		default:
			hints.Add("jfrt.stale", 1)
		}
		if got[i] != nil {
			c.store(d.Target, got[i], hints)
		}
	}
}

// store records the node that took delivery for target; a full table is
// restarted for it, counted in resets. The table is made on the first store:
// with the JFRT off, a node's stays nil, which reads as empty.
func (c *jfrtCache) store(target id.ID, n *chord.Node, resets *obs.CounterVec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[target]; !ok && len(c.entries) >= jfrtMax {
		c.entries = nil
		resets.Add("jfrt.reset", 1)
	}
	if c.entries == nil {
		c.entries = make(map[id.ID]*chord.Node)
	}
	c.entries[target] = n
}

// len returns how many evaluators the table remembers.
func (c *jfrtCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
