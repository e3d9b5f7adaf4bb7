package engine

import (
	"cqjoin/internal/relation"
)

// The second hash level of Section 4.3.5, sized for what a bucket actually
// holds (DESIGN.md §8.2): nearly every value-level bucket stores a handful
// of items, so membership is a scan of the insertion-ordered slice, and only
// a bucket that outgrows smallTableMax carries a key index. Both table types
// own that invariant — index == nil, or it holds exactly the keys of items —
// so no caller dedupes by hand.

// smallTableMax is the largest table searched by scanning: 99.4 % of
// sim-steady's tuple buckets hold at most 4 tuples and 99 % of its rewrite
// buckets at most 8 rewrites, while a scan of 8 costs less than one string
// hash. A table that shrinks keeps its index until it is half that size, so
// one hovering at the threshold does not rebuild it on every eviction.
const smallTableMax = 8

// tupleSet is an insertion-ordered set of tuples, unique by content key.
type tupleSet struct {
	items []*relation.Tuple
	index map[string]struct{}
}

func (s *tupleSet) len() int { return len(s.items) }

// all returns the stored tuples in insertion order; callers must not modify
// the slice.
func (s *tupleSet) all() []*relation.Tuple { return s.items }

func (s *tupleSet) has(t *relation.Tuple) bool {
	if s.index != nil {
		_, ok := s.index[t.ContentKey()]
		return ok
	}
	for _, o := range s.items {
		if o.SameContent(t) {
			return true
		}
	}
	return false
}

// add stores t unless a tuple of the same content is present, and reports
// whether it was stored.
func (s *tupleSet) add(t *relation.Tuple) bool {
	if s.has(t) {
		return false
	}
	s.items = append(s.items, t)
	if s.index != nil {
		s.index[t.ContentKey()] = struct{}{}
	} else if len(s.items) > smallTableMax {
		s.index = make(map[string]struct{}, 2*len(s.items))
		for _, o := range s.items {
			s.index[o.ContentKey()] = struct{}{}
		}
	}
	return true
}

// addAll adds every tuple of ts and returns how many were new.
func (s *tupleSet) addAll(ts []*relation.Tuple) int {
	added := 0
	for _, t := range ts {
		if s.add(t) {
			added++
		}
	}
	return added
}

// removeIf drops the tuples drop selects, keeping the order of the rest, and
// returns how many went.
func (s *tupleSet) removeIf(drop func(*relation.Tuple) bool) int {
	kept := s.items[:0]
	for _, t := range s.items {
		if !drop(t) {
			kept = append(kept, t)
		} else if s.index != nil {
			delete(s.index, t.ContentKey())
		}
	}
	removed := len(s.items) - len(kept)
	clear(s.items[len(kept):])
	s.items = kept
	if len(kept) <= smallTableMax/2 {
		s.index = nil
	}
	return removed
}

// rewriteTable is an insertion-ordered table of stored rewritten queries,
// unique by Key(q') (Section 4.3.3). An entry is the *rewritten its join
// carried; a repeat of its key adds nothing. A table that carries an index
// keys it by key(), so only those build the strings of derived keys.
type rewriteTable struct {
	items []*rewritten
	index map[string]*rewritten
	// sent is what few tables hold, nil until one needs it: by query key, the
	// inputs the table's chain rewrites went on to a stage (meet) — where a
	// retraction's purge follows them (handlePurge).
	sent map[string]map[string]struct{}
}

func (t *rewriteTable) len() int { return len(t.items) }

// all returns the stored rewrites in insertion order, the order matching
// follows; callers must not modify the slice.
func (t *rewriteTable) all() []*rewritten { return t.items }

// get returns the stored rewrite whose Key(q') is rw's, nil when none is.
func (t *rewriteTable) get(rw *rewritten) *rewritten {
	if t.index != nil {
		var buf [keyScratch]byte
		return t.index[string(rw.appendKey(buf[:0]))]
	}
	for _, o := range t.items {
		if o == rw || o.sameKey(rw) {
			return o
		}
	}
	return nil
}

// record stores rw unless its key is already present: the same query
// rewritten by a tuple with the same index-attribute value (Section 4.3.3).
// It reports whether rw was stored.
func (t *rewriteTable) record(rw *rewritten) bool {
	if t.get(rw) != nil {
		return false
	}
	t.items = append(t.items, rw)
	if t.index != nil {
		t.index[rw.key()] = rw
	} else if len(t.items) > smallTableMax {
		t.index = make(map[string]*rewritten, 2*len(t.items))
		for _, o := range t.items {
			t.index[o.key()] = o
		}
	}
	return true
}

// recordTarget remembers that a chain rewrite of query key stored here went
// on to input.
func (t *rewriteTable) recordTarget(key, input string) {
	if t.sent == nil {
		t.sent = make(map[string]map[string]struct{})
	}
	ts := t.sent[key]
	if ts == nil {
		ts = make(map[string]struct{})
		t.sent[key] = ts
	}
	ts[input] = struct{}{}
}

// takeTargets forgets and returns the inputs query key's chain rewrites went
// on to from here.
func (t *rewriteTable) takeTargets(key string) map[string]struct{} {
	ts := t.sent[key]
	delete(t.sent, key)
	return ts
}

// removeIf drops the rewrites drop selects, keeping the order of the rest,
// and returns how many went.
func (t *rewriteTable) removeIf(drop func(*rewritten) bool) int {
	kept := t.items[:0]
	for _, rw := range t.items {
		if !drop(rw) {
			kept = append(kept, rw)
			continue
		}
		if t.index != nil {
			var buf [keyScratch]byte
			delete(t.index, string(rw.appendKey(buf[:0]))) // a derived key is not built as a string
		}
	}
	removed := len(t.items) - len(kept)
	clear(t.items[len(kept):])
	t.items = kept
	if len(kept) <= smallTableMax/2 {
		t.index = nil
	}
	return removed
}
