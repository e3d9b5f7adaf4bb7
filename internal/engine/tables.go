package engine

import (
	"bytes"

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
		var buf [keyScratch]byte
		_, ok := s.index[string(t.AppendContentKey(buf[:0]))]
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
			var buf [keyScratch]byte
			delete(s.index, string(t.AppendContentKey(buf[:0])))
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
// keys it by indexHash of each key, rendered on the stack: no key is built
// as a string. Every stored rewrite's hash has a slot: the rewrite, whose
// key a lookup compares, or nil where two stored keys have shared the hash,
// which a lookup answers by a scan.
type rewriteTable struct {
	items []*rewritten
	index map[uint64]*rewritten
	// sent is what few tables hold, nil until one needs it: by query key, the
	// inputs the table's chain rewrites went on to a stage (meet) — where a
	// retraction's purge follows them (handlePurge).
	sent map[string]map[string]struct{}
}

func (t *rewriteTable) len() int { return len(t.items) }

// all returns the stored rewrites in insertion order, the order matching
// follows; callers must not modify the slice.
func (t *rewriteTable) all() []*rewritten { return t.items }

// scan returns the stored rewrite whose Key(q') is rw's, looking at each.
func (t *rewriteTable) scan(rw *rewritten) *rewritten {
	for _, o := range t.items {
		if o == rw || o.sameKey(rw) {
			return o
		}
	}
	return nil
}

// lookup returns the stored rewrite whose Key(q') is rw's, key, through the
// index: h is indexHash(key).
func (t *rewriteTable) lookup(rw *rewritten, key []byte, h uint64) *rewritten {
	o, ok := t.index[h]
	switch {
	case !ok:
		return nil
	case o == nil:
		return t.scan(rw)
	case o == rw:
		return o
	}
	var buf [keyScratch]byte
	if bytes.Equal(o.appendKey(buf[:0]), key) {
		return o
	}
	return nil
}

// record stores rw unless its key is already present: the same query
// rewritten by a tuple with the same index-attribute value (Section 4.3.3).
// It reports whether rw was stored.
func (t *rewriteTable) record(rw *rewritten) bool {
	if t.index == nil {
		if t.scan(rw) != nil {
			return false
		}
		t.items = append(t.items, rw)
		if len(t.items) > smallTableMax {
			t.index = make(map[uint64]*rewritten, 2*len(t.items))
			for _, o := range t.items {
				t.indexAt(o, o.keyHash())
			}
		}
		return true
	}
	var buf [keyScratch]byte
	key := rw.appendKey(buf[:0])
	h := indexHash(key)
	if t.lookup(rw, key, h) != nil {
		return false
	}
	t.items = append(t.items, rw)
	t.indexAt(rw, h)
	return true
}

// indexAt gives rw, a key not yet indexed, the slot of its hash h: its own,
// or nil where another key holds h.
func (t *rewriteTable) indexAt(rw *rewritten, h uint64) {
	if _, taken := t.index[h]; taken {
		t.index[h] = nil
	} else {
		t.index[h] = rw
	}
}

// keyHash returns indexHash of rw's Key(q').
func (rw *rewritten) keyHash() uint64 {
	var buf [keyScratch]byte
	return indexHash(rw.appendKey(buf[:0]))
}

// indexHash hashes the keys a rewriteTable indexes: FNV-1a, the same in
// every process, passed through indexCollide.
func indexHash(key []byte) uint64 { return indexCollide(fnv64a(key)) }

// indexCollide is the identity but where a test makes keys collide: only
// _test.go files set it.
var indexCollide = func(h uint64) uint64 { return h }

// fnv64a returns the 64-bit FNV-1a hash of b.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
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
			if h := rw.keyHash(); t.index[h] == rw { // a shared hash's nil stays: a kept key may have it
				delete(t.index, h)
			}
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
