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

// getRewrite returns the stored rewrite whose Key(q') is rw's, nil when none
// is.
func getRewrite(t *table[*rewritten], rw *rewritten) *rewritten {
	o, _ := t.find(rw.keyHash(), func(o *rewritten) bool { return o == rw || o.sameKey(rw) })
	return o
}

// vlSlotOf returns st's value-level slot of input, the zero slot where it
// has none. The caller holds st.mu, or owns the engine alone.
func (st *nodeState) vlSlotOf(input string) vlSlot { return st.vl[vlHash([]byte(input))] }

// tableKind is one kind of item a table holds, as matchesMapAndSlice drives
// it: a pool whose keys repeat, the reference's key of an item, the
// engine's own calls for the kind, and its own removal.
type tableKind[T comparable] struct {
	// pool returns items of n keys, each at least twice, so a duplicate
	// arrives both as the same pointer and as an equal copy.
	pool    func(n int) []T
	key     func(T) string
	add     func(*table[T], T) bool
	addAll  func(*table[T], []T) // nil: add one by one, as a hand-off merges the kind
	get     func(*table[T], T) (T, bool)
	keyHash func(T) uint64
	// evict returns the kind's removal: a moving window, a retraction, a
	// dropped group.
	evict  func(rng *rand.Rand, n int) func(T) bool
	absent T // an item of a key no pool holds
}

// run drives a table and the layout it replaced — a map for membership
// beside a slice for order — through seeded sequences of adds, merges,
// removals and partitions that cross smallTableMax in both directions.
// Membership, order and every return value must agree, every stored item
// must be found, and the index, where there is one, must give each stored
// key's hash a slot: the item's own, or a shared one. It reports whether two
// stored keys shared a slot.
func (k tableKind[T]) run(t *testing.T, colliding bool) (shared bool) {
	t.Helper()
	var none T
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limit := 1 + rng.Intn(64) // keys 1…64: below, at and far above the threshold
		pool := k.pool(limit)
		var tab table[T]
		byKey := make(map[string]T)
		var items []T
		refAdd := func(x T) bool {
			if _, dup := byKey[k.key(x)]; dup {
				return false
			}
			byKey[k.key(x)] = x
			items = append(items, x)
			return true
		}
		removeIf := func(drop func(T) bool) {
			kept := items[:0:0]
			for _, x := range items {
				if drop(x) {
					delete(byKey, k.key(x))
				} else {
					kept = append(kept, x)
				}
			}
			items = kept
			tab.removeIf(drop, k.keyHash)
		}
		for op := 0; op < 300; op++ {
			step := fmt.Sprintf("seed %d op %d", seed, op)
			switch c := rng.Intn(10); {
			case c < 6:
				x := pool[rng.Intn(len(pool))]
				_, want := byKey[k.key(x)]
				if _, has := k.get(&tab, x); has != want {
					t.Fatalf("%s: get(%s) found %v, reference %v", step, k.key(x), has, want)
				}
				if got, want := k.add(&tab, x), refAdd(x); got != want {
					t.Fatalf("%s: add(%s) = %v, reference %v", step, k.key(x), got, want)
				}
			case c < 7: // a merge: a batch with duplicates inside and against the table
				batch := make([]T, rng.Intn(12))
				for i := range batch {
					batch[i] = pool[rng.Intn(len(pool))]
				}
				for _, x := range batch {
					refAdd(x)
				}
				if k.addAll != nil {
					k.addAll(&tab, batch)
				} else {
					for _, x := range batch {
						k.add(&tab, x)
					}
				}
			case c < 8:
				removeIf(k.evict(rng, limit))
			default: // a partition leaves, as on hot-key migration
				m := 2 + rng.Intn(3)
				removeIf(func(x T) bool { return len(k.key(x))%m == 0 })
			}

			if !slices.Equal(tab.all(), items) || tab.len() != len(items) {
				t.Fatalf("%s: table holds %d items, reference %d, or in another order", step, tab.len(), len(items))
			}
			for _, x := range tab.all() {
				if o, ok := k.get(&tab, x); !ok || o != x {
					t.Fatalf("%s: get(%s) does not return the stored item", step, k.key(x))
				}
			}
			if _, ok := k.get(&tab, k.absent); ok {
				t.Fatalf("%s: get of an absent key found an item", step)
			}
			if tab.index == nil {
				if tab.len() > smallTableMax {
					t.Fatalf("%s: %d items and no index", step, tab.len())
				}
				continue
			}
			if !colliding && len(tab.index) != tab.len() {
				t.Fatalf("%s: index of %d keys over %d items", step, len(tab.index), tab.len())
			}
			for _, x := range tab.all() {
				o, ok := tab.index[k.keyHash(x)]
				if !ok || o != none && o != x {
					t.Fatalf("%s: %s's hash has no slot, or another key's", step, k.key(x))
				}
				shared = shared || o == none // a hash two stored keys held
			}
		}
	}
	return shared
}

// matchesMapAndSlice runs k with FNV-1a hashes and again where indexCollide
// makes keys collide: a hash of four values, so an index past smallTableMax
// shares slots, dedupe and removeIf stay exact, and every kept item stays
// findable. It fails unless the colliding run saw a shared slot.
func (k tableKind[T]) matchesMapAndSlice(t *testing.T) {
	t.Helper()
	k.run(t, false)
	defer func(c func(uint64) uint64) { indexCollide = c }(indexCollide)
	indexCollide = func(h uint64) uint64 { return h % 4 }
	if !k.run(t, true) {
		t.Fatal("the colliding hash never made two stored keys share a slot")
	}
}

// A table of tuples, unique by content, matches the map-plus-slice layout.
func TestTupleSetMatchesMapAndSlice(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B")
	tuples := tableKind[*relation.Tuple]{
		// Some tuples differ from another only in a value, not in pubT.
		pool: func(n int) []*relation.Tuple {
			var pool []*relation.Tuple
			for i := 0; i < n; i++ {
				for c := 0; c < 2; c++ {
					pool = append(pool, relation.MustTuple(schema, relation.N(float64(i%7)), relation.S(fmt.Sprint(i))).WithPubT(int64(i/3)))
				}
			}
			return pool
		},
		key:    contentKey,
		add:    addTuple,
		addAll: addTuples,
		get: func(s *table[*relation.Tuple], tu *relation.Tuple) (*relation.Tuple, bool) {
			return s.find(tupleHash(tu), tu.SameContent)
		},
		keyHash: tupleHash,
		evict: func(rng *rand.Rand, n int) func(*relation.Tuple) bool {
			cutoff := int64(rng.Intn(n/3 + 2))
			return func(tu *relation.Tuple) bool { return tu.PubT() < cutoff }
		},
		absent: relation.MustTuple(schema, relation.N(0), relation.S("absent")),
	}
	tuples.matchesMapAndSlice(t)
}

// A table of rewrites, unique by Key(q') whether derived or spelled in full,
// matches the map-plus-slice layout.
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
	var tab table[*rewritten]
	derived, spelled := arrival(0, 7, 1, false), arrival(0, 7, 2, true)
	if spelled.spelledKey() != qs[0].Key()+"+1+7" || derived.key() != spelled.spelledKey() {
		t.Fatalf("keys %q and %q, want both %s+1+7", derived.key(), spelled.spelledKey(), qs[0].Key())
	}
	if !addRewrite(&tab, derived) || addRewrite(&tab, spelled) || tab.len() != 1 || getRewrite(&tab, spelled) != derived {
		t.Fatalf("a derived key and its spelling stored as %d entries", tab.len())
	}
	rewrites := tableKind[*rewritten]{
		// A repeat trigger of a key arrives both derived and spelled.
		pool: func(n int) []*rewritten {
			var pool []*rewritten
			for v := 0; v < n; v++ {
				for i := range qs {
					pool = append(pool, arrival(i, v, int64(v), false), arrival(i, v, int64(v+1), true))
				}
			}
			return pool
		},
		key: (*rewritten).key,
		add: addRewrite,
		get: func(t *table[*rewritten], rw *rewritten) (*rewritten, bool) {
			o := getRewrite(t, rw)
			return o, o != nil
		},
		keyHash: (*rewritten).keyHash,
		// A query is retracted: a purge drops its rewrites of some values.
		evict: func(rng *rand.Rand, _ int) func(*rewritten) bool {
			qk, m := qs[rng.Intn(len(qs))].Key(), 1+rng.Intn(3)
			return func(rw *rewritten) bool { return rw.Orig.Key() == qk && int(rw.WantValue.Num())%m == 0 }
		},
		absent: arrival(3, 1000, 0, false),
	}
	rewrites.matchesMapAndSlice(t)
}

// A table of condition groups, unique by condition key, matches the
// map-plus-slice layout through condEntryOf.
func TestCondTableMatchesMapAndSlice(t *testing.T) {
	groups := tableKind[*queryGroup]{
		pool: func(n int) []*queryGroup {
			var pool []*queryGroup
			for i := 0; i < n; i++ {
				cond := fmt.Sprintf("R.B%d=S.E%d", i%5, i)
				pool = append(pool, &queryGroup{cond: cond}, &queryGroup{cond: cond})
			}
			return pool
		},
		key: (*queryGroup).condKey,
		add: func(t *table[*queryGroup], g *queryGroup) bool {
			added := false
			condEntryOf(t, g.cond, func() *queryGroup { added = true; return g })
			return added
		},
		get: func(t *table[*queryGroup], g *queryGroup) (*queryGroup, bool) {
			o := condEntryOf(t, g.cond, nil)
			return o, o != nil
		},
		keyHash: condHash[*queryGroup],
		// A group's last query is retracted.
		evict: func(rng *rand.Rand, n int) func(*queryGroup) bool {
			cond := fmt.Sprintf("R.B%d=S.E%d", rng.Intn(n)%5, rng.Intn(n))
			return func(g *queryGroup) bool { return g.cond == cond }
		},
		absent: &queryGroup{cond: "R.A=S.D"},
	}
	groups.matchesMapAndSlice(t)
}

// The index is dropped only at half the threshold, so a table hovering at
// it does not rebuild one per eviction.
func TestTableIndexHysteresis(t *testing.T) {
	schema := relation.MustSchema("R", "A")
	var s table[*relation.Tuple]
	for i := 0; i <= smallTableMax; i++ {
		if s.index != nil {
			t.Fatalf("index built at %d tuples, threshold %d", i, smallTableMax)
		}
		addTuple(&s, relation.MustTuple(schema, relation.N(float64(i))).WithPubT(int64(i)))
	}
	if s.index == nil {
		t.Fatalf("no index at %d tuples", s.len())
	}
	s.removeIf(func(tu *relation.Tuple) bool { return tu.PubT() < 2 }, tupleHash)
	if s.index == nil {
		t.Fatalf("index dropped at %d tuples, above half the threshold", s.len())
	}
	s.removeIf(func(tu *relation.Tuple) bool { return tu.PubT() < int64(smallTableMax/2)+1 }, tupleHash)
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
