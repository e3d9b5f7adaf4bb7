package engine

import "cqjoin/internal/metrics"

// CensusEntry is the size of one structure the engine keeps: summed over the
// nodes, and the largest on one node. An engine-wide structure's are equal.
type CensusEntry struct{ Sum, Max int }

// Census returns the size of each structure the engine keeps that grows with
// what it is sent, by name:
//   - vl_buckets, the value-level identifiers (slots), and what their
//     buckets store: vlqt_rewrites, vlqt_spelled_keys (stored rewrites whose
//     Key(q') is a string their target holds, not derived) and vltt_tuples;
//   - daiv_tuples, what DAI-V's value stores hold;
//   - alqt_queries, alqt_purge_entries (the inputs on the condition groups'
//     purge lists, each once a group however many of its queries it serves),
//     alqt_marks and alqt_grants;
//   - sub_ips and stored_notifs;
//   - jfrt_entries, and publisher_verdicts (the attribute-level inputs whose
//     rewriter told a publisher whether a query reads them);
//   - hot_counters and hot_entries, the inputs the hot-key detector tallies
//     at their bases and those of them it promoted;
//   - engine-wide, delivered (typed and a parent's text identities) and
//     retracted (the retraction memory); and
//     wire_memo_queries, wire_memo_parsed and wire_memo_strings, what the
//     memo of the engine's WireCodec holds.
//
// It takes each live node's lock in turn, and costs nothing until called.
func (e *Engine) Census() map[string]CensusEntry {
	c := make(census)
	for _, n := range e.net.Nodes() {
		e.state(n).census(c)
	}
	e.mu.Lock()
	c.engineWide("delivered", e.delivered.len()+e.legacy.len())
	e.mu.Unlock()
	c.engineWide("retracted", int(e.retracted.n.Load()))
	queries, parsed, strs := e.memo.Sizes()
	c.engineWide("wire_memo_queries", queries)
	c.engineWide("wire_memo_parsed", parsed)
	c.engineWide("wire_memo_strings", strs)
	return c
}

type census map[string]CensusEntry

// add counts one node's n of a structure.
func (c census) add(name string, n int) {
	ce := c[name]
	ce.Sum += n
	ce.Max = max(ce.Max, n)
	c[name] = ce
}

func (c census) engineWide(name string, n int) { c[name] = CensusEntry{n, n} }

// holding is what a node stores, table by table. Its storage load TS, "how
// many items a node currently holds" (Chapter 1), is their sum by role, and
// the census reports each: so TS is counted, never kept, and cannot drift
// from the tables.
type holding struct{ queries, rewrites, tuples, daivTuples, notifs int }

// holding counts this node's stored items, under st.mu.
func (st *nodeState) holding() holding {
	st.mu.Lock()
	defer st.mu.Unlock()
	var h holding
	for _, s := range st.vl {
		if s.q != nil {
			h.rewrites += s.q.rewrites.len()
		}
		if s.t != nil {
			h.tuples += s.t.tuples.len()
		}
	}
	for _, b := range st.alqt {
		h.queries += b.storedItems()
	}
	for _, b := range st.vstore {
		h.daivTuples += b.storedItems()
	}
	for _, batch := range st.storedNotifs {
		h.notifs += len(batch)
	}
	return h
}

// storage returns the TS of role r: a rewriter's ALQT queries; an evaluator's
// VLQT rewrites, VLTT and DAI-V tuples and stored notifications.
func (h holding) storage(r metrics.Role) int64 {
	switch r {
	case metrics.Rewriter:
		return int64(h.queries)
	case metrics.Evaluator:
		return int64(h.rewrites + h.tuples + h.daivTuples + h.notifs)
	}
	return 0
}

// census adds this node's counts to c.
func (st *nodeState) census(c census) {
	c.add("jfrt_entries", st.jfrt.len())
	h := st.holding()
	st.mu.Lock()
	defer st.mu.Unlock()
	var spelled, targets, marks, grants, verdicts, promoted int
	for _, s := range st.vl {
		if s.q != nil {
			for _, rw := range s.q.rewrites.all() {
				if rw.spelledKey() != "" {
					spelled++
				}
			}
		}
	}
	for _, b := range st.alqt {
		for _, g := range b.byCond.all() {
			targets += len(g.sent)
		}
		marks += len(b.interest)
		grants += len(b.grants)
	}
	for ord := range 4 * len(st.verdicts) {
		if st.verdict(ord) != verdictUnknown {
			verdicts++
		}
	}
	for _, h := range st.hot {
		if h.promoted {
			promoted++
		}
	}
	c.add("vl_buckets", len(st.vl))
	c.add("vlqt_rewrites", h.rewrites)
	c.add("vlqt_spelled_keys", spelled)
	c.add("vltt_tuples", h.tuples)
	c.add("daiv_tuples", h.daivTuples)
	c.add("alqt_queries", h.queries)
	c.add("alqt_purge_entries", targets)
	c.add("alqt_marks", marks)
	c.add("alqt_grants", grants)
	c.add("sub_ips", len(st.subIPs))
	c.add("stored_notifs", h.notifs)
	c.add("publisher_verdicts", verdicts)
	c.add("hot_counters", len(st.hot))
	c.add("hot_entries", promoted)
}
