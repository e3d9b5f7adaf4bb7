package engine

import (
	"sort"

	"cqjoin/internal/query"
)

// Bucket merge helpers for nodeState.merge (handoff.go), the one path every
// move of state installs through. During churn a node can receive
// deliveries for an input it is not the converged owner of — stale routing
// creates a bucket for that input at the wrong node. When ownership is
// later handed over, the incoming bucket must merge with whatever the
// destination already accumulated; overwriting would lose state and
// duplicating would double future matches. Every helper is idempotent under
// re-merge (items are keyed), returns the number of items actually added
// for storage-load accounting, and iterates in deterministic order so
// hand-offs don't perturb a seeded chaos trace. Callers hold dst.mu.

// condsOf lists a bucket's condition keys in registration order, followed
// by any stragglers (buckets built by paths that don't track order) sorted.
func condsOf(byCond map[string]*queryGroup, order []string) []string {
	seen := make(map[string]bool, len(order))
	out := make([]string, 0, len(byCond))
	for _, c := range order {
		if byCond[c] != nil && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	var rest []string
	for c := range byCond {
		if !seen[c] {
			rest = append(rest, c)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// appendNew appends to *dst the items of src whose key no item of *dst has
// yet, and returns how many it added.
func appendNew[T any](dst *[]T, src []T, key func(T) string) int {
	have := make(map[string]bool, len(*dst))
	for _, it := range *dst {
		have[key(it)] = true
	}
	added := 0
	for _, it := range src {
		if k := key(it); !have[k] {
			have[k] = true
			*dst = append(*dst, it)
			added++
		}
	}
	return added
}

func (st *nodeState) mergeAL(b *alBucket) int {
	ex := st.alqt[b.input]
	if ex == nil {
		st.alqt[b.input] = b
		return b.storedItems()
	}
	added := 0
	for _, cond := range condsOf(b.byCond, b.condOrder) {
		g := b.byCond[cond]
		eg := ex.byCond[cond]
		if eg == nil {
			eg = &queryGroup{cond: cond, side: g.side}
			ex.byCond[cond] = eg
			ex.condOrder = append(ex.condOrder, cond)
		}
		added += appendNew(&eg.queries, g.queries, (*query.Query).Key)
	}
	mconds := make([]string, 0, len(b.multi))
	for c := range b.multi {
		mconds = append(mconds, c)
	}
	sort.Strings(mconds)
	for _, cond := range mconds {
		g := b.multi[cond]
		eg := ex.multi[cond]
		if eg == nil {
			eg = &mGroup{cond: cond}
			ex.multi[cond] = eg
		}
		added += appendNew(&eg.queries, g.queries, (*query.MultiQuery).Key)
	}
	ex.arrivals = append(ex.arrivals, b.arrivals...)
	for v := range b.distinct {
		ex.distinct[v] = struct{}{}
	}
	for k := range b.sentRewrites {
		ex.sentRewrites[k] = true
	}
	for key := range b.interest {
		ex.mark(key)
	}
	for qk, targets := range b.sentTargets {
		ts := ex.sentTargets[qk]
		if ts == nil {
			ts = make(map[string]struct{}, len(targets))
			ex.sentTargets[qk] = ts
		}
		for t := range targets {
			ts[t] = struct{}{}
		}
	}
	return added
}

func (st *nodeState) mergeMVLQT(b *mvlqtBucket) int {
	ex := st.mvlqt[b.input]
	if ex == nil {
		st.mvlqt[b.input] = b
		return len(b.rewrites)
	}
	added := appendNew(&ex.rewrites, b.rewrites, func(rw *mRewritten) string { return rw.Key })
	for key, targets := range b.sentTargets {
		ts := ex.sentTargets[key]
		if ts == nil {
			if ex.sentTargets == nil {
				ex.sentTargets = make(map[string]map[string]struct{})
			}
			ex.sentTargets[key] = targets
			continue
		}
		for t := range targets {
			ts[t] = struct{}{}
		}
	}
	return added
}

func (st *nodeState) mergeDAIV(b *daivBucket) int {
	ex := st.vstore[b.input]
	if ex == nil {
		st.vstore[b.input] = b
		return b.storedItems()
	}
	conds := make([]string, 0, len(b.byCond))
	for c := range b.byCond {
		conds = append(conds, c)
	}
	sort.Strings(conds)
	added := 0
	for _, cond := range conds {
		entry := b.byCond[cond]
		eentry := ex.byCond[cond]
		if eentry == nil {
			ex.byCond[cond] = entry
			added += entry.tuples[0].len() + entry.tuples[1].len()
			continue
		}
		for side := range entry.tuples {
			added += eentry.tuples[side].addAll(entry.tuples[side].all())
		}
	}
	return added
}

func (st *nodeState) mergePair(b *pairBucket) int {
	ex := st.pairStore[b.input]
	if ex == nil {
		st.pairStore[b.input] = b
		return b.storedItems()
	}
	added := 0
	for _, cond := range condsOf(b.byCond, nil) {
		g := b.byCond[cond]
		eg := ex.byCond[cond]
		if eg == nil {
			eg = &queryGroup{cond: cond, side: g.side}
			ex.byCond[cond] = eg
		}
		added += appendNew(&eg.queries, g.queries, (*query.Query).Key)
	}
	for side := range b.tuples {
		added += ex.tuples[side].addAll(b.tuples[side].all())
	}
	return added
}
