package engine

import "sort"

// Bucket merge helpers for key hand-off (TransferKeys). During churn a
// node can receive deliveries for an input it is not the converged owner
// of — stale routing creates a bucket for that input at the wrong node.
// When ownership is later handed over, the incoming bucket must merge with
// whatever the destination already accumulated; overwriting would lose
// state and duplicating would double future matches. Every helper is
// idempotent under re-merge (items are keyed), returns the number of items
// actually added for storage-load accounting, and iterates in
// deterministic order so hand-offs don't perturb a seeded chaos trace.
// Callers hold dst.mu.

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
		have := make(map[string]bool, len(eg.queries))
		for _, q := range eg.queries {
			have[q.Key()] = true
		}
		for _, q := range g.queries {
			if !have[q.Key()] {
				have[q.Key()] = true
				eg.queries = append(eg.queries, q)
				added++
			}
		}
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
		have := make(map[string]bool, len(eg.queries))
		for _, q := range eg.queries {
			have[q.Key()] = true
		}
		for _, q := range g.queries {
			if !have[q.Key()] {
				have[q.Key()] = true
				eg.queries = append(eg.queries, q)
				added++
			}
		}
	}
	ex.arrivals = append(ex.arrivals, b.arrivals...)
	for v := range b.distinct {
		ex.distinct[v] = struct{}{}
	}
	for k := range b.sentRewrites {
		ex.sentRewrites[k] = true
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

func (st *nodeState) mergeVLQT(b *vlqtBucket) int {
	ex := st.vlqt[b.input]
	if ex == nil {
		st.vlqt[b.input] = b
		return len(b.byKey)
	}
	added := 0
	for _, sr := range b.sorted {
		if esr, dup := ex.byKey[sr.rw.Key]; dup {
			esr.times = append(esr.times, sr.times...)
			continue
		}
		ex.byKey[sr.rw.Key] = sr
		ex.sorted = append(ex.sorted, sr)
		added++
	}
	return added
}

func (st *nodeState) mergeMVLQT(b *mvlqtBucket) int {
	ex := st.mvlqt[b.input]
	if ex == nil {
		st.mvlqt[b.input] = b
		return len(b.rewrites)
	}
	have := make(map[string]bool, len(ex.rewrites))
	for _, rw := range ex.rewrites {
		have[rw.Key] = true
	}
	added := 0
	for _, rw := range b.rewrites {
		if !have[rw.Key] {
			have[rw.Key] = true
			ex.rewrites = append(ex.rewrites, rw)
			added++
		}
	}
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

func (st *nodeState) mergeVLTT(b *vlttBucket) int {
	ex := st.vltt[b.input]
	if ex == nil {
		if b.seen == nil {
			b.seen = make(map[string]bool, len(b.tuples))
			for _, t := range b.tuples {
				b.seen[t.ContentKey()] = true
			}
		}
		st.vltt[b.input] = b
		return len(b.tuples)
	}
	if ex.seen == nil {
		ex.seen = make(map[string]bool, len(ex.tuples))
		for _, t := range ex.tuples {
			ex.seen[t.ContentKey()] = true
		}
	}
	added := 0
	for _, t := range b.tuples {
		if ck := t.ContentKey(); !ex.seen[ck] {
			ex.seen[ck] = true
			ex.tuples = append(ex.tuples, t)
			added++
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
			added += len(entry.tuples[0]) + len(entry.tuples[1])
			continue
		}
		for side := 0; side < 2; side++ {
			for _, t := range entry.tuples[side] {
				if ck := t.ContentKey(); !eentry.seen[ck] {
					eentry.seen[ck] = true
					eentry.tuples[side] = append(eentry.tuples[side], t)
					added++
				}
			}
		}
	}
	return added
}

func (st *nodeState) mergePair(b *pairBucket) int {
	ex := st.pairStore[b.input]
	if ex == nil {
		st.pairStore[b.input] = b
		return len(b.tuples[0]) + len(b.tuples[1]) + b.storedQueries()
	}
	added := 0
	for _, cond := range condsOf(b.byCond, nil) {
		g := b.byCond[cond]
		eg := ex.byCond[cond]
		if eg == nil {
			eg = &queryGroup{cond: cond, side: g.side}
			ex.byCond[cond] = eg
		}
		have := make(map[string]bool, len(eg.queries))
		for _, q := range eg.queries {
			have[q.Key()] = true
		}
		for _, q := range g.queries {
			if !have[q.Key()] {
				have[q.Key()] = true
				eg.queries = append(eg.queries, q)
				added++
			}
		}
	}
	for side := 0; side < 2; side++ {
		for _, t := range b.tuples[side] {
			if ck := t.ContentKey(); !ex.seen[ck] {
				ex.seen[ck] = true
				ex.tuples[side] = append(ex.tuples[side], t)
				added++
			}
		}
	}
	return added
}
