package engine

import (
	"sync"

	"cqjoin/internal/id"
	"cqjoin/internal/relation"
)

// idCache memoizes id.Hash over the recurring identifier inputs of the
// publish hot path: value-level inputs ("R+A+v") and replica assignments
// (a catalog attribute's attribute-level ones are computed once: alKey).
// Under a skewed workload the same inputs recur constantly, and a SHA-1 per
// occurrence dominated indexTuple profiles; the cache turns the common case
// into one map hit. A caller looks an input up by the bytes it built on its
// stack (hashBytes), so a hit allocates nothing and a miss allocates the one
// string the cache keeps. It is semantically transparent — it returns exactly
// id.Hash(input) — and bounded: when full it is emptied in place rather than
// evicted, which keeps the zero-contention fast path a plain map read and the
// table at its size.
type idCache struct {
	mu sync.Mutex
	m  map[string]id.ID
}

// idCacheMax bounds the cache. At the end of a sim-steady run it held 40 974
// entries of (string, 20-byte ID), 4–7 MB of the live heap in three sampled
// heap profiles.
const idCacheMax = 1 << 16

func (c *idCache) hash(input string) id.ID {
	c.mu.Lock()
	h, ok := c.m[input]
	c.mu.Unlock()
	if !ok {
		// Hash outside the lock: SHA-1 is the expensive part, and concurrent
		// misses on the same input compute the same answer.
		h = id.HashBytes([]byte(input))
		c.store(input, h)
	}
	return h
}

// hashBytes is hash for an input still in the caller's buffer.
func (c *idCache) hashBytes(input []byte) id.ID {
	c.mu.Lock()
	h, ok := c.m[string(input)]
	c.mu.Unlock()
	if !ok {
		h = id.HashBytes(input)
		c.store(string(input), h)
	}
	return h
}

func (c *idCache) store(input string, h id.ID) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]id.ID, 1024)
	} else if len(c.m) >= idCacheMax {
		clear(c.m)
	}
	c.m[input] = h
	c.mu.Unlock()
}

// hashInput returns id.Hash(input) through the engine's identifier cache.
func (e *Engine) hashInput(input string) id.ID { return e.ids.hash(input) }

// relAttr names one attribute of one relation.
type relAttr struct{ rel, attr string }

// alIdent is an attribute-level input, its identifier and its ordinal: where
// a publisher keeps the input's rewriter's verdict (nodeState.verdicts), -1
// for an input the catalog did not hold at New.
type alIdent struct {
	input string
	id    id.ID
	ord   int
}

// alIdents computes every catalog attribute's attribute-level inputs and
// identifiers, one per replica, once (Engine.New): a relation's are the same
// for every tuple it publishes, so their number is bounded by the catalog,
// not by what is published. It also returns each input's ordinal, by input.
func alIdents(catalog *relation.Catalog, replicas int) (map[relAttr][]alIdent, map[string]int) {
	out, ords := make(map[relAttr][]alIdent), make(map[string]int)
	for _, schema := range catalog.Schemas() {
		for i := 0; i < schema.Arity(); i++ {
			ids := make([]alIdent, replicas)
			for r := range ids {
				input := alInput(schema.Name(), schema.Attr(i), r)
				ids[r] = alIdent{input: input, id: id.Hash(input), ord: len(ords)}
				ords[input] = len(ords)
			}
			out[relAttr{schema.Name(), schema.Attr(i)}] = ids
		}
	}
	return out, ords
}

// alKey returns the attribute-level identity of (rel, attr) on replica: the
// catalog's, or — for a relation the catalog took in after New, or a replica
// past the configured factor — built and hashed here, with no ordinal.
func (e *Engine) alKey(rel, attr string, replica int) alIdent {
	if ids := e.alIDs[relAttr{rel, attr}]; replica >= 0 && replica < len(ids) {
		return ids[replica]
	}
	input := alInput(rel, attr, replica)
	return alIdent{input: input, id: e.hashInput(input), ord: -1}
}
