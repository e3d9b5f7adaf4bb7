package engine

import "cqjoin/internal/relation"

// The second hash level of Section 4.3.5, sized for what a bucket actually
// holds (DESIGN.md §8.2): nearly every bucket stores a handful of items, so
// membership is a scan of the insertion-ordered slice, and only a bucket that
// outgrows smallTableMax carries an index. One table serves every second
// level — a VLTT bucket's tuples and a DAI-V entry's sides (addTuple), a VLQT
// bucket's rewrites (addRewrite), an ALQT or DAI-V bucket's condition groups
// (condEntryOf) — and owns the invariant that the index is nil or holds a
// slot per stored key, so no caller dedupes by hand.

// smallTableMax is the largest table searched by scanning: 99.4 % of
// sim-steady's tuple buckets hold at most 4 tuples and 99 % of its rewrite
// buckets at most 8 rewrites, while a scan of 8 costs less than one hash of a
// rendered key. A table that shrinks keeps its index until it is half that
// size, so one hovering at the threshold does not rebuild it on every
// eviction.
const smallTableMax = 8

// table is an insertion-ordered table of items, unique by a key its caller
// defines in two functions: same, whether an item holds the key a lookup asks
// for, and keyHash, the indexHash of an item's key, rendered on the caller's
// stack. Every stored key's hash has an index slot: the item holding the key,
// or the zero T where two stored keys have shared the hash, which a lookup
// answers by a scan. The zero value is an empty table.
type table[T comparable] struct {
	items []T
	index map[uint64]T
}

func (t *table[T]) len() int { return len(t.items) }

// all returns the stored items in insertion order, the order every walk that
// matches or sends follows; callers must not modify the slice.
func (t *table[T]) all() []T { return t.items }

// find returns the stored item same accepts, and whether there is one. h is
// the hash of the key same looks for, read only where the table has an index.
func (t *table[T]) find(h uint64, same func(T) bool) (T, bool) {
	var none T
	if t.index != nil {
		switch o, ok := t.index[h]; {
		case !ok:
			return none, false
		case o != none:
			if same(o) {
				return o, true
			}
			return none, false
		}
	}
	for _, o := range t.items {
		if same(o) {
			return o, true
		}
	}
	return none, false
}

// insert stores x unless an item of its key — one same accepts — is stored,
// and reports whether it stored x. It hashes x only where the table has an
// index.
func (t *table[T]) insert(x T, same func(T) bool, keyHash func(T) uint64) bool {
	var h uint64
	if t.index != nil {
		h = keyHash(x)
	}
	if _, dup := t.find(h, same); dup {
		return false
	}
	t.add(x, h, keyHash)
	return true
}

// add appends x, whose key no stored item holds: h is its hash where the
// table has an index. The item past smallTableMax builds the index.
func (t *table[T]) add(x T, h uint64, keyHash func(T) uint64) {
	t.items = append(t.items, x)
	if t.index != nil {
		t.indexAt(x, h)
	} else if len(t.items) > smallTableMax {
		t.index = make(map[uint64]T, 2*len(t.items))
		for _, o := range t.items {
			t.indexAt(o, keyHash(o))
		}
	}
}

// indexAt gives x, a key not yet indexed, the slot of its hash h: its own, or
// none where another key holds h.
func (t *table[T]) indexAt(x T, h uint64) {
	if _, taken := t.index[h]; taken {
		var none T
		t.index[h] = none
	} else {
		t.index[h] = x
	}
}

// removeIf drops the items drop selects, keeping the order of the rest.
func (t *table[T]) removeIf(drop func(T) bool, keyHash func(T) uint64) {
	kept := t.items[:0]
	for _, x := range t.items {
		if !drop(x) {
			kept = append(kept, x)
		} else if t.index != nil {
			if h := keyHash(x); t.index[h] == x { // a shared hash's empty slot stays: a kept key may have it
				delete(t.index, h)
			}
		}
	}
	clear(t.items[len(kept):])
	t.items = kept
	if len(kept) <= smallTableMax/2 {
		t.index = nil
	}
}

// addTuple stores tu unless a tuple of its content is stored, and reports
// whether it did: a duplicated delivery is absorbed.
func addTuple(s *table[*relation.Tuple], tu *relation.Tuple) bool {
	return s.insert(tu, tu.SameContent, tupleHash)
}

// addTuples adds every tuple of ts whose content s does not hold.
func addTuples(s *table[*relation.Tuple], ts []*relation.Tuple) {
	for _, tu := range ts {
		addTuple(s, tu)
	}
}

// tupleHash returns indexHash of tu's content key.
func tupleHash(tu *relation.Tuple) uint64 { return indexCollide(contentHash(tu)) }

// contentHash returns the FNV-1a hash of t's content key, rendered on the
// stack.
func contentHash(t *relation.Tuple) uint64 {
	var buf [keyScratch]byte
	return fnv64a(t.AppendContentKey(buf[:0]))
}

// addRewrite stores rw unless its Key(q') is stored — the same query
// rewritten by a tuple with the same index-attribute value (Section 4.3.3) —
// and reports whether it did.
func addRewrite(t *table[*rewritten], rw *rewritten) bool {
	return t.insert(rw, func(o *rewritten) bool { return o == rw || o.sameKey(rw) }, (*rewritten).keyHash)
}

// keyHash returns indexHash of rw's Key(q').
func (rw *rewritten) keyHash() uint64 {
	var buf [keyScratch]byte
	return indexHash(rw.appendKey(buf[:0]))
}

// condEntry is an entry of a condition table, Section 4.3.5's second level at
// a rewriter (queryGroup) or a DAI-V evaluator (daivEntry): it says its
// condition key.
type condEntry interface {
	comparable
	condKey() string
}

// condEntryOf returns t's entry of cond, adding mk() last where there is
// none; with mk nil it returns the zero G there.
func condEntryOf[G condEntry](t *table[G], cond string, mk func() G) G {
	h := indexHash(cond)
	g, ok := t.find(h, func(g G) bool { return g.condKey() == cond })
	if !ok && mk != nil {
		g = mk()
		t.add(g, h, condHash[G])
	}
	return g
}

// condHash returns indexHash of g's condition key.
func condHash[G condEntry](g G) uint64 { return indexHash(g.condKey()) }

// indexHash hashes the keys a table indexes: FNV-1a, the same in every
// process, passed through indexCollide.
func indexHash[K string | []byte](key K) uint64 { return indexCollide(fnv64a(key)) }

// indexCollide is the identity but where a test makes keys collide: only
// _test.go files set it.
var indexCollide = func(h uint64) uint64 { return h }

// fnv64a returns the 64-bit FNV-1a hash of b.
func fnv64a[K string | []byte](b K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}
