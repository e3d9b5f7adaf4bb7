package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/lockdep"
	"cqjoin/internal/metrics"
	"cqjoin/internal/query"
)

// Continuous queries are long-lived but not eternal; this file adds the
// removal path the paper leaves implicit. The subscriber (who knows where
// it indexed its query) retracts it from its rewriter(s); each rewriter
// drops it from the ALQT and purges the rewritten queries it had fanned
// out to evaluators, using the purge list its condition group recorded while
// rewriting (queryGroup.sent): the inputs the group was triggered at since
// the query's insT. Tuples stored at evaluators are shared state and stay.
// Its interest marks (index.go) go by the same message, from the same list.
//
// A retraction can overtake what it retracts — a rewriter sends a join after
// releasing the lock it recorded the target under, and a mark or the query
// itself can be held up in the network — so a process one of whose nodes
// processed a retraction of Key(q) remembers the key, and every node of it
// refuses whatever arrives under it afterwards (Engine.retract). Keys never
// recur, and only a retraction adds one: no live query is ever refused.

// unsubMsg retracts one query at an attribute-level rewriter. It travels as
// a pointer: a retraction's messages are one array (retractQuery).
type unsubMsg struct {
	QueryKey string
	Cond     string
	Input    string // the rewriter's ALQT bucket key
}

func (*unsubMsg) Kind() string { return kindUnsub }

// purgeMsg removes one query's stored rewrites at a value-level evaluator.
// It travels as a pointer: a rewriter's purges, and an evaluator's cascade,
// are one array (purges).
type purgeMsg struct {
	QueryKey string
	Input    string // the value-level input, whose identifier names the evaluator's bucket
}

func (*purgeMsg) Kind() string { return kindUnsub }

// standing is a query a subscriber of this engine indexed: the query, which
// a retraction by its key names, and the inputs it was indexed or marked at.
// One a parent's snapshot restores has its inputs alone.
type standing struct {
	q      *query.Query
	inputs []string
}

// Standing returns the query of key that a subscriber of this engine has
// standing, or nil: retracted, posed elsewhere, or restored from a snapshot
// that did not say it.
func (e *Engine) Standing(key string) *query.Query {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.subs[key].q
}

// Unsubscribe retracts a continuous query previously returned by
// Subscribe. After it returns, future tuple insertions can no longer
// trigger the query. A chain's rewriter purges its first-stage rewrites like any others; each
// evaluator cascades the purge down the chain along the targets its rewrites
// went on to (vlqtBucket.recordTarget).
func (e *Engine) Unsubscribe(from *chord.Node, q *query.Query) error {
	if !from.Alive() {
		return fmt.Errorf("engine: unsubscribe from departed node %s", from)
	}
	return e.retractQuery(from, q.Key(), q.ConditionKey())
}

// retractQuery sends the retraction of query key to every input the
// subscriber indexed or marked it at.
func (e *Engine) retractQuery(from *chord.Node, key, cond string) error {
	e.mu.Lock()
	sub, ok := e.subs[key]
	delete(e.subs, key)
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("engine: unknown or already retracted query %s", key)
	}
	msgs := make([]unsubMsg, len(sub.inputs))
	batch := make([]chord.Deliverable, len(sub.inputs))
	for i, input := range sub.inputs {
		msgs[i] = unsubMsg{QueryKey: key, Cond: cond, Input: input}
		batch[i] = chord.Deliverable{Target: id.Hash(input), Msg: &msgs[i]}
	}
	return e.dispatch(from, batch)
}

// handleUnsub removes the query from this rewriter's ALQT and purges its
// stored rewrites from every evaluator this rewriter fanned out to.
func (st *nodeState) handleUnsub(m *unsubMsg) {
	var purges []purgeMsg

	st.mu.Lock()
	st.engine.retract(m.QueryKey)
	if b := st.alqt[m.Input]; b != nil {
		delete(b.interest, m.QueryKey)
		if g := condEntryOf(&b.byCond, m.Cond, nil); g != nil {
			purges = g.retire(m.QueryKey)
			if len(g.queries) == 0 {
				b.byCond.removeIf(func(o *queryGroup) bool { return o == g }, condHash[*queryGroup])
			}
		}
		// Forget the reindex-once markers so a re-subscription of the same
		// subscriber sequence starts clean.
		prefix := m.QueryKey + "+"
		for k := range b.sentRewrites {
			if strings.HasPrefix(k, prefix) {
				delete(b.sentRewrites, k)
			}
		}
	}
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Rewriter, 1)
	st.sendPurges(purges)
}

// sendPurges sends msgs, one array of purges. With the JFRT on (Section
// 4.7.1) a purge whose evaluator the table remembers taking its input's joins
// goes there hinted, on a leg of its own: one hop and one message a purge, and
// nothing allocated for it, however many share an evaluator
// (TestRetractionAllocCeiling). The rest walk in one multisend, and the table
// learns who took each; with the JFRT off it is not read.
func (st *nodeState) sendPurges(msgs []purgeMsg) {
	if len(msgs) == 0 {
		return
	}
	e := st.engine
	batch := make([]chord.Deliverable, len(msgs))
	walk := batch[:0]
	var recBuf [8]*chord.Node
	for i := range msgs {
		d := chord.Deliverable{Target: vlHash([]byte(msgs[i].Input)), Msg: &msgs[i]}
		if e.cfg.UseJFRT {
			d.Hint = st.jfrt.lookup(d.Target)
		}
		if d.Hint == nil {
			walk = append(walk, d)
			continue
		}
		one := [1]chord.Deliverable{d}
		got, _ := e.send(st.node, one[:], recBuf[:0])
		st.jfrt.learn(one[:], got, e.obs.hints)
	}
	got, _ := e.send(st.node, walk, recBuf[:0])
	if e.cfg.UseJFRT {
		st.jfrt.learn(walk, got, e.obs.hints)
	}
}

// handlePurge drops the retracted query's stored rewrites from the VLQT
// bucket of its input at this evaluator. A chain's purge cascades: rewrites that went on from
// here live at later stages, so it follows the targets they went on to. The
// cascade ends because each visit consumes its targets: a bucket visited
// again sends nothing on. The base of an input the hot-key layer promoted
// passes the purge on to shards 1..k-1, which hold copies of its rewrites
// (DESIGN.md §13); a shard is never promoted itself.
func (st *nodeState) handlePurge(m *purgeMsg) {
	prefix := []byte(m.QueryKey + "+")
	var cascade []purgeMsg

	h := vlHash([]byte(m.Input))
	st.mu.Lock()
	st.engine.retract(m.QueryKey)
	if s := st.vl[h]; s.q != nil {
		s.q.rewrites.removeIf(func(rw *rewritten) bool {
			var buf [keyScratch]byte
			return rw.Orig.Key() == m.QueryKey || bytes.HasPrefix(rw.appendKey(buf[:0]), prefix)
		}, (*rewritten).keyHash)
		if targets := s.q.takeTargets(m.QueryKey); len(targets) > 0 {
			cascade = make([]purgeMsg, 0, len(targets))
			for input := range targets {
				cascade = append(cascade, purgeMsg{QueryKey: m.QueryKey, Input: input})
			}
		}
		if s.q.empty() {
			st.setVL(h, vlSlot{t: s.t})
		}
	}
	if h := st.hot[m.Input]; h != nil && h.promoted {
		for s := 1; s < st.engine.hotK; s++ {
			cascade = append(cascade, purgeMsg{QueryKey: m.QueryKey, Input: string(appendShardInput(nil, m.Input, s))})
		}
	}
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Evaluator, 1)
	st.sendPurges(cascade)
}

// retractedMax bounds a process's retraction memory: full, it restarts (a
// late message outlives its retraction by a network delay).
const retractedMax = 1 << 16

// retractions is a process's retraction memory: the keys of the queries a node
// of the engine processed a retraction of. Its lock is a leaf, taken under
// nodeState.mu or alone, and read-locked by every check; n lets a process that
// retracted nothing check with one atomic load.
type retractions struct {
	n    atomic.Int64 // len(keys), stored under mu
	mu   lockdep.RWMutex[retractionsMu]
	keys map[string]struct{}
}

type retractionsMu struct{} // retractions.mu's lock class

// retract remembers that a node of this process processed a retraction of
// each of keys. A handler calls it under its st.mu, before it drops what the
// retraction names, so a later arrival at that node sees the key. Most calls
// name keys the memory holds — a retraction's purges each name its key again
// — and those take only the read lock, which the arrivals at other nodes
// share.
func (e *Engine) retract(keys ...string) {
	r := &e.retracted
	r.mu.RLock()
	held := !slices.ContainsFunc(keys, func(key string) bool {
		_, ok := r.keys[key]
		return !ok
	})
	r.mu.RUnlock()
	if held {
		return
	}
	r.mu.Lock()
	for _, key := range keys {
		if r.keys == nil {
			r.keys = make(map[string]struct{})
		} else if len(r.keys) >= retractedMax {
			e.obs.retractedResets.Inc()
			clear(r.keys)
		}
		r.keys[key] = struct{}{}
	}
	r.n.Store(int64(len(r.keys)))
	r.mu.Unlock()
}

// isRetracted reports whether a node of this process processed a retraction
// of query key.
func (e *Engine) isRetracted(key string) bool {
	r := &e.retracted
	if r.n.Load() == 0 {
		return false
	}
	r.mu.RLock()
	_, ok := r.keys[key]
	r.mu.RUnlock()
	return ok
}

// retractedKeys returns the process's retraction memory, sorted.
func (e *Engine) retractedKeys() []string {
	r := &e.retracted
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedKeys(r.keys)
}

// liveRewrites returns rws, less those of queries this process retracted: rws
// itself when none is, else a copy.
func (e *Engine) liveRewrites(rws []rewritten) []rewritten {
	r := &e.retracted
	if r.n.Load() == 0 {
		return rws
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	dead := func(rw rewritten) bool {
		_, ok := r.keys[rw.Orig.Key()]
		return ok
	}
	if !slices.ContainsFunc(rws, dead) {
		return rws
	}
	return slices.DeleteFunc(slices.Clone(rws), dead)
}
