package engine

import "cqjoin/internal/relation"

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

// storedRewrite is one rewritten query waiting at an evaluator, with the
// publication times of the tuples that produced it. Most are produced once:
// times starts out over first, the entry's own one-element array, and moves
// to an array of its own only when a second time comes.
type storedRewrite struct {
	rw    *rewritten
	times []int64
	first [1]int64
}

// rewriteSlab hands out the entries one join message stores (handleJoin): on
// first use it allocates one array for the want rewrites the message has
// left, so the new rewrites of a message share one backing array. A nil slab
// allocates each entry alone.
type rewriteSlab struct {
	want int
	free []storedRewrite
}

func (s *rewriteSlab) entry() *storedRewrite {
	if s == nil {
		return new(storedRewrite)
	}
	if len(s.free) == 0 {
		s.free = make([]storedRewrite, max(s.want, 1))
	}
	sr := &s.free[0]
	s.free = s.free[1:]
	return sr
}

// rewriteTable is an insertion-ordered table of stored rewritten queries,
// unique by rewritten key (Section 4.3.3).
type rewriteTable struct {
	items []*storedRewrite
	index map[string]*storedRewrite
}

func (t *rewriteTable) len() int { return len(t.items) }

// all returns the stored rewrites in insertion order, the order matching
// follows; callers must not modify the slice.
func (t *rewriteTable) all() []*storedRewrite { return t.items }

func (t *rewriteTable) get(key string) *storedRewrite {
	if t.index != nil {
		return t.index[key]
	}
	for _, sr := range t.items {
		if sr.rw.Key == key {
			return sr
		}
	}
	return nil
}

// record stores rw with its trigger times in an entry of slab, or — when its
// key is already present: the same query rewritten by a tuple with the same
// index-attribute value — only adds the times to the stored entry
// (Section 4.3.3). It reports whether rw was stored.
func (t *rewriteTable) record(rw *rewritten, slab *rewriteSlab, times ...int64) bool {
	if sr := t.get(rw.Key); sr != nil {
		sr.times = append(sr.times, times...)
		return false
	}
	sr := slab.entry()
	sr.rw = rw
	if len(times) > 0 {
		sr.first[0] = times[0]
		sr.times = append(sr.first[:1:1], times[1:]...)
	}
	t.items = append(t.items, sr)
	if t.index != nil {
		t.index[rw.Key] = sr
	} else if len(t.items) > smallTableMax {
		t.index = make(map[string]*storedRewrite, 2*len(t.items))
		for _, o := range t.items {
			t.index[o.rw.Key] = o
		}
	}
	return true
}

// removeIf drops the rewrites drop selects, keeping the order of the rest,
// and returns how many went.
func (t *rewriteTable) removeIf(drop func(*storedRewrite) bool) int {
	kept := t.items[:0]
	for _, sr := range t.items {
		if !drop(sr) {
			kept = append(kept, sr)
		} else if t.index != nil {
			delete(t.index, sr.rw.Key)
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
