package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// vlInput returns the value-level input R+A+v as a string.
func vlInput(rel, attr string, v relation.Value) string {
	return string(appendVLInput(nil, rel, attr, v))
}

// key returns Key(q') as a string.
func (rw *rewritten) key() string { return string(rw.appendKey(nil)) }

// get returns the stored rewrite whose Key(q') is rw's, nil when none is.
func (t *rewriteTable) get(rw *rewritten) *rewritten {
	if t.index == nil {
		return t.scan(rw)
	}
	key := rw.appendKey(nil)
	return t.lookup(rw, key, indexHash(key))
}

// vlSlotOf returns st's value-level slot of input, the zero slot where it
// has none. The caller holds st.mu, or owns the engine alone.
func (st *nodeState) vlSlotOf(input string) vlSlot { return st.vl[vlHash([]byte(input))] }

// The table types against the layout they replaced — a map for membership
// beside a slice for order — under random operation sequences that cross
// smallTableMax in both directions. Membership, order and every return
// value must agree, and the index must be exactly the keys of the items
// whenever it exists.

// refTuples is the reference tuple store: the eager seen map plus slice.
type refTuples struct {
	seen   map[string]bool
	tuples []*relation.Tuple
}

func (r *refTuples) add(t *relation.Tuple) bool {
	if r.seen[t.ContentKey()] {
		return false
	}
	r.seen[t.ContentKey()] = true
	r.tuples = append(r.tuples, t)
	return true
}

func (r *refTuples) removeIf(drop func(*relation.Tuple) bool) int {
	kept := r.tuples[:0:0]
	for _, t := range r.tuples {
		if drop(t) {
			delete(r.seen, t.ContentKey())
		} else {
			kept = append(kept, t)
		}
	}
	removed := len(r.tuples) - len(kept)
	r.tuples = kept
	return removed
}

func checkTupleSet(t *testing.T, step string, s *tupleSet, ref *refTuples) {
	t.Helper()
	if !slices.Equal(s.all(), ref.tuples) || s.len() != len(ref.tuples) {
		t.Fatalf("%s: set holds %v, reference %v", step, s.all(), ref.tuples)
	}
	if s.index == nil {
		if s.len() > smallTableMax {
			t.Fatalf("%s: %d tuples and no index", step, s.len())
		}
		return
	}
	if len(s.index) != s.len() {
		t.Fatalf("%s: index of %d keys over %d tuples", step, len(s.index), s.len())
	}
	for _, tu := range s.all() {
		if _, ok := s.index[tu.ContentKey()]; !ok {
			t.Fatalf("%s: %s stored but not indexed", step, tu)
		}
	}
}

func TestTupleSetMatchesMapAndSlice(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B")
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limit := 1 + rng.Intn(64) // sizes 0…64: below, at and far above the threshold
		// A small pool of contents, each built twice, so duplicates arrive
		// both as the same pointer and as an equal copy — some of them
		// differing from a stored tuple only in a value, not in pubT.
		var pool []*relation.Tuple
		for i := 0; i < limit; i++ {
			for c := 0; c < 2; c++ {
				pool = append(pool, relation.MustTuple(schema, relation.N(float64(i%7)), relation.S(fmt.Sprint(i))).WithPubT(int64(i/3)))
			}
		}
		var s tupleSet
		ref := &refTuples{seen: make(map[string]bool)}
		for op := 0; op < 300; op++ {
			step := fmt.Sprintf("seed %d op %d", seed, op)
			switch k := rng.Intn(10); {
			case k < 6:
				tu := pool[rng.Intn(len(pool))]
				if has, want := s.has(tu), ref.seen[tu.ContentKey()]; has != want {
					t.Fatalf("%s: has(%s) = %v, reference %v", step, tu, has, want)
				}
				if got, want := s.add(tu), ref.add(tu); got != want {
					t.Fatalf("%s: add(%s) = %v, reference %v", step, tu, got, want)
				}
			case k < 7: // a merge: a batch with duplicates inside and against the set
				batch := make([]*relation.Tuple, rng.Intn(12))
				for i := range batch {
					batch[i] = pool[rng.Intn(len(pool))]
				}
				want := 0
				for _, tu := range batch {
					if ref.add(tu) {
						want++
					}
				}
				if got := s.addAll(batch); got != want {
					t.Fatalf("%s: addAll added %d, reference %d", step, got, want)
				}
			case k < 8: // the window moves
				cutoff := int64(rng.Intn(limit/3 + 2))
				old := func(tu *relation.Tuple) bool { return tu.PubT() < cutoff }
				if got, want := s.removeIf(old), ref.removeIf(old); got != want {
					t.Fatalf("%s: evicting before %d removed %d, reference %d", step, cutoff, got, want)
				}
			default: // a partition leaves, as on hot-key migration
				m := 2 + rng.Intn(3)
				odd := func(tu *relation.Tuple) bool { return len(tu.ContentKey())%m == 0 }
				if got, want := s.removeIf(odd), ref.removeIf(odd); got != want {
					t.Fatalf("%s: removeIf removed %d, reference %d", step, got, want)
				}
			}
			checkTupleSet(t, step, &s, ref)
		}
	}
}

// refRewrites is the reference rewrite table: entries by spelled key beside
// their order.
type refRewrites struct {
	byKey  map[string]*rewritten
	sorted []*rewritten
}

func (r *refRewrites) record(rw *rewritten) bool {
	if _, dup := r.byKey[rw.key()]; dup {
		return false
	}
	r.byKey[rw.key()] = rw
	r.sorted = append(r.sorted, rw)
	return true
}

// The rewrite table holds the *rewritten its join carried, its Key(q') held
// derived or spelled: arrivals in both key forms, repeats of a key and
// retractions. It does so as well where indexCollide makes keys collide — a
// hash of four values, so an index past smallTableMax shares slots: dedupe
// and removeIf stay exact, and every kept rewrite stays findable.
func TestRewriteTableMatchesMapAndSlice(t *testing.T) {
	r := relation.MustSchema("R", "A", "B", "C")
	catalog := relation.MustCatalog(r, relation.MustSchema("S", "D", "E", "F"))
	var qs []*query.Query
	for i := 0; i < 4; i++ {
		qs = append(qs, query.MustParse(catalog, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`).WithIdentity("peer", "sim://peer", i+1))
	}
	// arrival is query i's rewrite by a tuple of pubT whose index value is v,
	// built as off the wire: fresh, with a target of its own, its key derived
	// or spelled in full.
	arrival := func(i, v int, pubT int64, spelled bool) *rewritten {
		t.Helper()
		q := qs[i]
		proj, err := relation.MustTuple(r, relation.N(float64(v%3)), relation.N(float64(v)), relation.N(0)).WithPubT(pubT).ProjectOnto(q.Projection(query.SideLeft))
		if err != nil {
			t.Fatal(err)
		}
		rw := &rewritten{Orig: q, rewriteTarget: &rewriteTarget{IndexSide: query.SideLeft, Trigger: proj, Want: &relation.AttrRef{Rel: "S", Attr: "E"}, WantValue: relation.N(float64(v))}}
		if spelled {
			rw.rewriteTarget = rw.withKey(rw.key())
		}
		return rw
	}

	// One Key(q'), said both ways, is one entry.
	var tab rewriteTable
	derived, spelled := arrival(0, 7, 1, false), arrival(0, 7, 2, true)
	if spelled.spelledKey() != qs[0].Key()+"+1+7" || derived.key() != spelled.spelledKey() {
		t.Fatalf("keys %q and %q, want both %s+1+7", derived.key(), spelled.spelledKey(), qs[0].Key())
	}
	if !tab.record(derived) || tab.record(spelled) || tab.len() != 1 || tab.get(spelled) != derived {
		t.Fatalf("a derived key and its spelling stored as %d entries", tab.len())
	}

	absent := arrival(3, 1000, 0, false)
	tableRun(t, qs, arrival, absent, false)
	defer func(c func(uint64) uint64) { indexCollide = c }(indexCollide)
	indexCollide = func(h uint64) uint64 { return h % 4 }
	if !tableRun(t, qs, arrival, absent, true) {
		t.Fatal("the colliding hash never made two stored keys share a slot")
	}
}

// tableRun drives a rewriteTable and its reference through seeded arrivals of
// queries' rewrites and retractions, comparing them after every step, and
// reports whether two stored keys shared an index slot.
func tableRun(t *testing.T, qs []*query.Query, arrival func(i, v int, pubT int64, spelled bool) *rewritten, absent *rewritten, colliding bool) (shared bool) {
	t.Helper()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limit := 1 + rng.Intn(64)
		var tab rewriteTable
		ref := &refRewrites{byKey: make(map[string]*rewritten)}
		check := func(step string) {
			t.Helper()
			if tab.len() != len(ref.sorted) {
				t.Fatalf("%s: table holds %d rewrites, reference %d", step, tab.len(), len(ref.sorted))
			}
			for i, rw := range tab.all() {
				if want := ref.sorted[i]; rw != want {
					t.Fatalf("%s: entry %d is %s, reference %s", step, i, rw.key(), want.key())
				}
				if tab.get(rw) != rw {
					t.Fatalf("%s: get(%s) does not return the stored entry", step, rw.key())
				}
			}
			if tab.index == nil && tab.len() > smallTableMax {
				t.Fatalf("%s: %d rewrites and no index", step, tab.len())
			}
			if tab.index != nil && !colliding && len(tab.index) != tab.len() {
				t.Fatalf("%s: index of %d keys over %d rewrites", step, len(tab.index), tab.len())
			}
			for _, rw := range tab.all() {
				if tab.index == nil {
					break
				}
				o, ok := tab.index[rw.keyHash()]
				if !ok || o != nil && o != rw {
					t.Fatalf("%s: %s's hash has no slot, or another key's", step, rw.key())
				}
				shared = shared || o == nil // a hash two stored keys held
			}
			if tab.get(absent) != nil {
				t.Fatalf("%s: get of an absent key returned an entry", step)
			}
		}
		for op := 0; op < 300; op++ {
			step := fmt.Sprintf("seed %d op %d", seed, op)
			if rng.Intn(10) < 8 {
				// Only the first of a key is stored.
				rw := arrival(rng.Intn(len(qs)), rng.Intn(limit), int64(op), rng.Intn(2) == 0)
				if got, want := tab.record(rw), ref.record(rw); got != want {
					t.Fatalf("%s: record(%s) = %v, reference %v", step, rw.key(), got, want)
				}
			} else { // a query is retracted
				qk := qs[rng.Intn(len(qs))].Key()
				gone := make(map[*rewritten]bool)
				kept := ref.sorted[:0:0]
				for _, rw := range ref.sorted {
					if rw.Orig.Key() == qk && rng.Intn(3) > 0 {
						gone[rw] = true
						delete(ref.byKey, rw.key())
					} else {
						kept = append(kept, rw)
					}
				}
				want := len(ref.sorted) - len(kept)
				ref.sorted = kept
				if got := tab.removeIf(func(rw *rewritten) bool { return gone[rw] }); got != want {
					t.Fatalf("%s: removeIf removed %d, reference %d", step, got, want)
				}
			}
			check(step)
		}
	}
	return shared
}

// The index is dropped only at half the threshold, so a table hovering at
// it does not rebuild one per eviction.
func TestTableIndexHysteresis(t *testing.T) {
	schema := relation.MustSchema("R", "A")
	var s tupleSet
	for i := 0; i <= smallTableMax; i++ {
		if s.index != nil {
			t.Fatalf("index built at %d tuples, threshold %d", i, smallTableMax)
		}
		s.add(relation.MustTuple(schema, relation.N(float64(i))).WithPubT(int64(i)))
	}
	if s.index == nil {
		t.Fatalf("no index at %d tuples", s.len())
	}
	s.removeIf(func(tu *relation.Tuple) bool { return tu.PubT() < 2 })
	if s.index == nil {
		t.Fatalf("index dropped at %d tuples, above half the threshold", s.len())
	}
	s.removeIf(func(tu *relation.Tuple) bool { return tu.PubT() < int64(smallTableMax/2)+1 })
	if s.index != nil || s.len() != smallTableMax/2 {
		t.Fatalf("index kept at %d tuples", s.len())
	}
}

// What the value level stores per bucket and per triggered group stays in the
// size class its comment names: a VLQT bucket of vlqtInline rewrites and a
// stored rewrite's target in the 64-byte class, a VLTT bucket of vlttInline
// tuples in the 48, and a stored rewrite — an element of its join's array —
// two words, its spelled key held by its target. One field more, or a want
// said as two strings again, moves every one of them up a class.
func TestStoredLayoutsKeepTheirSizeClasses(t *testing.T) {
	for _, c := range []struct {
		what       string
		size, want uintptr
	}{
		{"a VLQT bucket", unsafe.Sizeof(vlqtBucket{}), 64},
		{"a VLTT bucket", unsafe.Sizeof(vlttBucket{}), 48},
		{"a value-level slot", unsafe.Sizeof(vlSlot{}), 16},
		{"a rewrite target", unsafe.Sizeof(rewriteTarget{}), 64},
		{"a stored rewrite", unsafe.Sizeof(rewritten{}), 16},
	} {
		if c.size > c.want {
			t.Errorf("%s takes %d bytes, past its %d-byte size class", c.what, c.size, c.want)
		}
	}
}

// A value-level bucket that outgrows the entries it holds inside itself, and
// is then purged and evicted back below them, matches and counts as a bucket
// that kept its entries apart from the start: the notifications of every step
// and the census after it are the figures the layout before inline entries
// gave.
func TestBucketOutgrowsItsInlineEntries(t *testing.T) {
	if vlqtInline >= 8 || vlttInline >= 4 {
		t.Fatal("the case no longer outgrows the buckets' inline entries")
	}
	const window = 1000
	env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 1, Window: window})
	const sql = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	var qs []*query.Query
	subscribe := func(n int) {
		for i := 0; i < n; i++ {
			qs = append(qs, env.subscribe(t, len(qs), sql))
		}
	}
	step := func(what string, notifs, rewrites, tuples int) {
		t.Helper()
		c := env.eng.Census()
		if got := env.eng.NotificationCount(); got != notifs ||
			c["vlqt_rewrites"].Sum != rewrites || c["vltt_tuples"].Sum != tuples ||
			c["vl_buckets"].Sum != 1 {
			t.Fatalf("%s: %d notifications, census %v; want %d notifications, %d rewrites and %d tuples in one bucket",
				what, got, c, notifs, rewrites, tuples)
		}
	}
	subscribe(2)
	env.publish(t, 1, rTuple(env, 1, 7, 0))
	env.publish(t, 2, sTuple(env, 10, 7, 0))
	env.publish(t, 3, sTuple(env, 11, 7, 0))
	step("inline", 4, 2, 2)

	subscribe(4)
	env.publish(t, 4, rTuple(env, 2, 7, 0))
	env.publish(t, 5, sTuple(env, 12, 7, 0))
	s13 := env.publish(t, 6, sTuple(env, 13, 7, 0))
	step("outgrown", 24, 8, 4)

	for _, q := range qs[1:] {
		if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
			t.Fatal(err)
		}
	}
	clock := env.net.Clock()
	clock.Advance(s13.PubT() + window - clock.Now()) // the window keeps s13 alone
	env.eng.EvictExpired()
	step("purged and evicted", 24, 2, 1)

	env.publish(t, 7, sTuple(env, 14, 7, 0))
	env.publish(t, 8, rTuple(env, 3, 7, 0))
	step("below again", 28, 3, 2)
}
