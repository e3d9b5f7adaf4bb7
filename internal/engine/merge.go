package engine

import (
	"maps"

	"cqjoin/internal/query"
)

// Bucket merge helpers for nodeState.merge (handoff.go), the one path every
// move of state installs through. During churn a node can receive
// deliveries for an input it is not the converged owner of — stale routing
// creates a bucket for that input at the wrong node. When ownership is
// later handed over, the incoming bucket must merge with whatever the
// destination already accumulated; overwriting would lose state and
// duplicating would double future matches. Every helper is idempotent under
// re-merge (items are keyed) and iterates in deterministic order so
// hand-offs don't perturb a seeded chaos trace. Callers hold dst.mu.

// appendNew appends to *dst the items of src whose key no item of *dst has
// yet.
func appendNew[T any](dst *[]T, src []T, key func(T) string) {
	have := make(map[string]bool, len(*dst))
	for _, it := range *dst {
		have[key(it)] = true
	}
	for _, it := range src {
		if k := key(it); !have[k] {
			have[k] = true
			*dst = append(*dst, it)
		}
	}
}

// mergeAL installs one ALQT section, its groups after the bucket's own in
// section order, and returns the grants the merged bucket takes back: one
// with a reader keeps no silence granted. Grants merge past alGrantsMax, which
// bounds granting, not keeping.
func (st *nodeState) mergeAL(sec alSection) (revoked []string) {
	b := st.alBucketFor(sec.Input)
	for _, g := range sec.Groups {
		eg := condEntryOf(&b.byCond, g.Cond, func() *queryGroup { return &queryGroup{cond: g.Cond, side: g.Side} })
		appendNew(&eg.queries, g.Queries, (*query.Query).Key)
	}
	b.arrivals = append(b.arrivals, sec.arrivals...)
	maps.Copy(b.distinct, sec.distinct)
	for _, k := range sec.SentRewrites {
		b.sentRewrites[k] = true
	}
	for _, key := range sec.Interest {
		b.mark(key)
	}
	b.mergeTargets(sec.SentTargets)
	for _, key := range sec.Grants {
		b.grant(key)
	}
	if !b.idle() {
		revoked = b.takeGrants()
	}
	return revoked
}

// mergeTargets folds each query's purge targets into its group's purge list
// at newest = its insT, or its newest there when later: what a cut exported
// for a query is the inputs whose newest was at least its insT, so each
// query purges what it did before the move, and a cut of the merged list
// writes the entries again. An entry whose query the bucket does not hold
// has no retraction left to serve.
func (b *alBucket) mergeTargets(entries []targetsEntry) {
	if len(entries) == 0 {
		return
	}
	type held struct {
		g *queryGroup
		q *query.Query
	}
	byKey := make(map[string]held)
	for _, g := range b.byCond.all() {
		for _, q := range g.queries {
			byKey[q.Key()] = held{g, q}
		}
	}
	for _, te := range entries {
		if h, ok := byKey[te.Key]; ok {
			for _, input := range te.Targets {
				h.g.record([]byte(input), h.q.InsT())
			}
		}
	}
}

// mergeDAIV installs one DAI-V section.
func (st *nodeState) mergeDAIV(sec dvSection) {
	b := st.daivBucketFor(sec.Input)
	for _, e := range sec.Entries {
		entry := condEntryOf(&b.byCond, e.Cond, func() *daivEntry { return &daivEntry{cond: e.Cond} })
		addTuples(&entry.tuples[query.SideLeft], e.Left)
		addTuples(&entry.tuples[query.SideRight], e.Right)
	}
}
