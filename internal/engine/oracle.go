package engine

import (
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Oracle is the centralized reference evaluator: a brute-force nested-loop
// join over the full history of a run, respecting the time semantics of
// Section 3.2 (pubT(t) >= insT(q)) and the selection predicates. Every
// distributed algorithm — and every chaos run — must deliver exactly the
// notifications the oracle derives; the invariant harness and the
// differential tests compare against it.
//
// The oracle covers two-way queries (the Chapter 4 algorithms); chains of
// more relations have their own expected-set computation in the chain tests.
type Oracle struct {
	queries []*query.Query
	tuples  map[string][]*relation.Tuple // by relation name, insertion order
}

// NewOracle returns an empty oracle.
func NewOracle() *Oracle {
	return &Oracle{tuples: make(map[string][]*relation.Tuple)}
}

// AddQuery registers a submitted query.
func (o *Oracle) AddQuery(q *query.Query) {
	o.queries = append(o.queries, q)
}

// AddTuple registers a published tuple under its relation.
func (o *Oracle) AddTuple(t *relation.Tuple) {
	o.tuples[t.Relation()] = append(o.tuples[t.Relation()], t)
}

// notifications enumerates every (query, left tuple, right tuple) match as
// the Notification the distributed engine would build for it.
func (o *Oracle) notifications() []Notification {
	var out []Notification
	for _, q := range o.queries {
		lefts := o.tuples[q.Rel(query.SideLeft).Name()]
		rights := o.tuples[q.Rel(query.SideRight).Name()]
		for _, lt := range lefts {
			if lt.PubT() < q.InsT() {
				continue
			}
			if ok, err := q.FiltersPass(lt); err != nil || !ok {
				continue
			}
			lv, err := q.EvalSide(query.SideLeft, lt)
			if err != nil {
				continue
			}
			for _, rt := range rights {
				if rt.PubT() < q.InsT() {
					continue
				}
				if ok, err := q.FiltersPass(rt); err != nil || !ok {
					continue
				}
				rv, err := q.EvalSide(query.SideRight, rt)
				if err != nil || !rv.Equal(lv) {
					continue
				}
				n, err := buildNotification(q, query.SideLeft, lt, rt)
				if err != nil {
					continue
				}
				out = append(out, n)
			}
		}
	}
	return out
}

// ExpectedContentKeys returns the distinct notification contents
// (Notification.ContentKey) the run must produce — the identity under which
// all four algorithms must agree.
func (o *Oracle) ExpectedContentKeys() map[string]bool {
	want := make(map[string]bool)
	for _, n := range o.notifications() {
		want[n.ContentKey()] = true
	}
	return want
}

// ExpectedDeliveries returns the full delivery identities
// (subscriber, content, publication times of the matched pair) the run must
// produce — the exact set a fault-injected engine has to deliver once the
// network heals, no more (duplicate absorption) and no less (retries,
// stored-notification replay).
func (o *Oracle) ExpectedDeliveries() map[string]bool {
	want := make(map[string]bool)
	for _, n := range o.notifications() {
		want[deliveryKey(n)] = true
	}
	return want
}

// DeliveryKeys renders the delivery identities of a notification list in
// the oracle's format, for set comparison.
func DeliveryKeys(ns []Notification) map[string]bool {
	got := make(map[string]bool)
	for _, n := range ns {
		got[deliveryKey(n)] = true
	}
	return got
}
