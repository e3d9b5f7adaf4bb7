package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// FuzzDeliveredSet holds the delivered set to a map over add sequences that
// ops spells (fuzzOps): fresh keys, the empty one included, repeats, bursts
// that freeze the recent tier and merge its runs through several levels, and
// keys that fill a page exactly or outgrow one. recent sets the recent tier's
// size M (1 to 64), so freezes, merges and a run's restart points land at
// small sizes; with collide every key hashes to one of four values, so
// probing walks long runs of other keys and every run's filter admits every
// key. Each key goes to a set of raw keys, as the legacy set holds any bytes,
// and as a notification's identity to a typed set. In both, every add must
// report what the map says; at the end, so must has, for every key and the
// keys just before and after it (its last byte cut, a zero byte added), and
// each must yield every map key exactly once, and nothing else.
//
// Beside it, pair spells two notifications (fuzzPair) from left, right, val
// and num: they must get one typed identity exactly when they agree on their
// query key, both times, and every value's kind and content, a number's to the
// bit; each identity must parse back to its notification's times and values,
// and survive spell and addSpelled. A's text identity must survive deliveryKey
// -> appendKeyIdentity -> textIdentityKey, as a parent's snapshot entry does,
// whatever the times' signs and however many '|' its values hold.
func FuzzDeliveredSet(f *testing.F) {
	f.Add([]byte{0, 3, 'a', 'b', 'c', 0x40, 0x41, 0x42, 0x85, 0x41}, false, int64(9), int64(-11), "a|b", 1.5, []byte{0, 1, 8, 0, 1}, uint8(63))
	f.Add([]byte{0xf0, 0x01, 'x', 0xf1, 0x40, 0x41, 0xf2, 0x42, 0x01, 'y'}, false, int64(math.MaxInt64), int64(math.MinInt64), "|", 0.0, []byte{3, 8, 4}, uint8(2))
	f.Add([]byte{0x90, 0x43, 0x90, 0x4f, 0x00, 0x40}, true, int64(-1), int64(math.MaxInt64), "1|2|3", 2.0, []byte{0, 8, 9, 0}, uint8(9))
	f.Add([]byte{0x02, 'p', 'q', 0x02, 'p', 'q', 0xf0, 0xf0, 0x8f, 0x7f}, true, int64(0), int64(0), "", 0.0, []byte{0, 8, 10, 11, 0}, uint8(0))
	// S("5") and N(5); ("a|b", "c") and ("a", "b|c"); -0 and 0; NaN and
	// itself; a number that is not integral; 2^60 and -2^60, and 2^61, past
	// the integral form, and -2^61, the last in it; a string longer than
	// keyScratch.
	f.Add([]byte{}, false, int64(1), int64(2), "5", 5.0, []byte{2, 8, 1}, uint8(63))
	f.Add([]byte{}, false, int64(1), int64(2), "a|b|c", 0.0, []byte{4, 8, 3}, uint8(63))
	f.Add([]byte{}, false, int64(1), int64(2), "", math.Copysign(0, -1), []byte{1, 8, 6}, uint8(63))
	f.Add([]byte{}, false, int64(1), int64(2), "", math.NaN(), []byte{1, 8, 1}, uint8(63))
	f.Add([]byte{}, false, int64(1), int64(2), "", -2.5, []byte{1, 8, 5}, uint8(63))
	f.Add([]byte{}, false, int64(1), int64(2), "", float64(1<<60), []byte{1, 8, 5}, uint8(63))
	f.Add([]byte{}, false, int64(1), int64(2), "", float64(1<<61), []byte{1, 5, 8, 1, 5}, uint8(63))
	f.Add([]byte{}, false, int64(1), int64(2), "y", 0.0, []byte{12, 0, 8, 12, 0}, uint8(63))
	// The fifth key freezes the tier and is then repeated; eight keys make
	// four runs of two, which merge; 64 keys, one a run, merge into a run
	// of two full blocks, and the keys before and after each block's edge
	// are looked up; the same with every key hashing alike.
	f.Add([]byte{0x01, 'a', 0x01, 'b', 0x01, 'c', 0x00, 0x01, 'e', 0x43, 0x44}, false, int64(1), int64(2), "", 0.0, []byte{}, uint8(4))
	f.Add([]byte{0x80, 0x40, 0x47, 0x01, 'z'}, false, int64(1), int64(2), "", 0.0, []byte{}, uint8(1))
	f.Add([]byte{0x87, 0x5f, 0x60, 0x7f, 0x80}, false, int64(1), int64(2), "", 0.0, []byte{}, uint8(0))
	f.Add([]byte{0x87, 0x5f, 0x60, 0x7f, 0x80}, true, int64(1), int64(2), "", 0.0, []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, ops []byte, collide bool, left, right int64, val string, num float64, pair []byte, recent uint8) {
		if collide {
			defer func(c func(uint64) uint64) { indexCollide = c }(indexCollide)
			indexCollide = func(h uint64) uint64 { return h % 4 }
		}
		defer func(m int) { recentMax = m }(recentMax)
		recentMax = 1 + int(recent)%64
		var raw, typed deliveredSet
		oracle := make(map[string]bool)
		typedOf := func(k []byte) []byte { return typed.identity(nil, fuzzKeyNotification(k)) }
		check := func(what string, k []byte) {
			t.Helper()
			if raw.has(k) != oracle[string(k)] || typed.has(typedOf(k)) != oracle[string(k)] {
				t.Fatalf("%s: has(%.20q) is %v raw, %v typed; the map holds it: %v", what, k, raw.has(k), typed.has(typedOf(k)), oracle[string(k)])
			}
		}
		fuzzOps(ops, func(k []byte) {
			fresh, typedFresh := raw.add(k), typed.add(typedOf(k))
			if fresh == oracle[string(k)] || typedFresh == oracle[string(k)] {
				t.Fatalf("add(%.20q) = %v raw, %v typed, after %d keys; the map holds it: %v", k, fresh, typedFresh, len(oracle), oracle[string(k)])
			}
			oracle[string(k)] = true
		})
		for _, s := range []*deliveredSet{&raw, &typed} {
			if s.len() != len(oracle) {
				t.Fatalf("the set holds %d keys, the map %d", s.len(), len(oracle))
			}
		}
		for k := range oracle {
			check("at the end", []byte(k))
			check("the key after", append([]byte(k), 0))
			if len(k) > 0 {
				check("the key before", []byte(k[:len(k)-1]))
			}
		}
		yielded := make(map[string]int)
		raw.each(func(id []byte) { yielded[string(id)]++ })
		typed.each(func(id []byte) {
			ref, w := binary.Uvarint(id)
			_, _, vals, err := parseMatch(id[w:])
			if err != nil || len(vals) != 1 || typed.keys[ref] != fuzzKeyNotification([]byte(vals[0].Str())).QueryKey {
				t.Fatalf("the typed set yields %q, no key's identity: %v", id, err)
			}
			yielded[vals[0].Str()] += 1 << 8
		})
		for k, n := range yielded {
			if !oracle[k] || n != 1<<8|1 {
				t.Fatalf("%.20q is yielded %d times raw and %d typed, and the map holds it: %v", k, n&0xff, n>>8, oracle[k])
			}
		}
		if len(yielded) != len(oracle) {
			t.Fatalf("the sets yield %d keys, the map holds %d", len(yielded), len(oracle))
		}

		a, b := fuzzPair(pair, left, right, val, num)
		var ids, respelled deliveredSet
		idA, idB := ids.identity(nil, a), ids.identity(nil, b)
		if same := sameMatch(a, b); bytes.Equal(idA, idB) != same {
			t.Fatalf("%v and %v: one identity %v, the same match %v", a, b, bytes.Equal(idA, idB), same)
		}
		if !ids.add(idA) || ids.add(idB) == sameMatch(a, b) {
			t.Fatalf("%v and %v: the second add says the set held it: %v", a, b, !ids.add(idB))
		}
		for _, id := range [][]byte{idA, idB} {
			if err := respelled.addSpelled(ids.spell(id)); err != nil {
				t.Fatalf("the spelled identity %q: %v", id, err)
			}
			if !respelled.has(id) {
				t.Fatalf("the spelled identity %q restores as another", id)
			}
		}
		for n, id := range map[*Notification][]byte{&a: idA, &b: idB} {
			if got := ids.render(id); got != deliveryKey(*n) {
				t.Fatalf("the identity of %v renders as %q, its deliveryKey is %q", *n, got, deliveryKey(*n))
			}
		}

		key := deliveryKey(a)
		id, err := appendKeyIdentity(nil, key)
		if err != nil {
			t.Fatalf("deliveryKey %q does not parse: %v", key, err)
		}
		if !bytes.Equal(id, a.appendTextIdentity(nil)) {
			t.Fatalf("deliveryKey %q parses to text identity %q, the notification's is %q", key, id, a.appendTextIdentity(nil))
		}
		if got := textIdentityKey(id); got != key {
			t.Fatalf("text identity of %q renders as %q", key, got)
		}
	})
}

// fuzzKeyNotification is the notification FuzzDeliveredSet adds to its typed
// set for key k: one of three queries, times from k's length, and k as its
// one value, so one key makes one identity.
func fuzzKeyNotification(k []byte) Notification {
	q := "peer5#" + strconv.Itoa(len(k)%3)
	return Notification{QueryKey: q, Values: []relation.Value{relation.S(string(k))}, LeftPubT: int64(len(k)), RightPubT: -int64(len(k) % 7)}
}

// fuzzPair spells two notifications of query peer5#2 at times left and right,
// A's values and then B's, one op byte b at a time, b%13:
//
//	0  S(val)                    5  N(-num)
//	1  N(num)                    6  N(0)
//	2  S of num's canonical form 7  N(-0)
//	3  val cut at its first '|', two strings (val and "" if it has none)
//	4  val cut at its last '|', the same
//	8  the values that follow are B's
//	9, 10, 11  B's key is peer5#3, its left time left+1, its right time right+1
//	12 S(val and keyScratch bytes more)
func fuzzPair(ops []byte, left, right int64, val string, num float64) (a, b Notification) {
	a = Notification{QueryKey: "peer5#2", Subscriber: "peer5", LeftPubT: left, RightPubT: right}
	b = a
	at := &a
	cut := func(i int) {
		if i < 0 {
			at.Values = append(at.Values, relation.S(val), relation.S(""))
		} else {
			at.Values = append(at.Values, relation.S(val[:i]), relation.S(val[i+1:]))
		}
	}
	for _, op := range ops {
		switch op % 13 {
		case 0:
			at.Values = append(at.Values, relation.S(val))
		case 1:
			at.Values = append(at.Values, relation.N(num))
		case 2:
			at.Values = append(at.Values, relation.S(relation.N(num).Canon()))
		case 3:
			cut(strings.IndexByte(val, '|'))
		case 4:
			cut(strings.LastIndexByte(val, '|'))
		case 5:
			at.Values = append(at.Values, relation.N(-num))
		case 6:
			at.Values = append(at.Values, relation.N(0))
		case 7:
			at.Values = append(at.Values, relation.N(math.Copysign(0, -1)))
		case 8:
			at = &b
		case 9:
			b.QueryKey = "peer5#3"
		case 10:
			b.LeftPubT = left + 1
		case 11:
			b.RightPubT = right + 1
		case 12:
			at.Values = append(at.Values, relation.S(val+strings.Repeat("x", keyScratch)))
		}
	}
	return a, b
}

// sameMatch reports whether a and b are one match: the same query key, both
// times, and values of the same kinds and contents, a number's to the bit.
func sameMatch(a, b Notification) bool {
	if a.QueryKey != b.QueryKey || a.LeftPubT != b.LeftPubT || a.RightPubT != b.RightPubT || len(a.Values) != len(b.Values) {
		return false
	}
	for i, v := range a.Values {
		w := b.Values[i]
		if v.Kind() != w.Kind() || v.Kind() == relation.String && v.Str() != w.Str() ||
			v.Kind() == relation.Number && math.Float64bits(v.Num()) != math.Float64bits(w.Num()) {
			return false
		}
	}
	return true
}

// fuzzOps calls add with each key ops spells, one per op byte b:
//
//	0x00-0x3f  a key of the next b bytes (of as many as are left)
//	0x40-0x7f  the (b-0x40)th key spelled so far, modulo their number
//	0x80-0xef  8*(b-0x7f) fresh keys, a counter's varint each
//	0xf0       a key whose entry, starting a run's page, fills it exactly
//	0xf1       a key of a page's size, whose entry outgrows a page
//	0xf2-0xff  a key of two pages and a byte
//
// It spells at most 4096 keys, 8 of them about a page long or more.
func fuzzOps(ops []byte, add func([]byte)) {
	var spelled [][]byte
	count, big := 0, 0
	put := func(k []byte) {
		spelled = append(spelled, k)
		add(k)
	}
	for len(ops) > 0 && len(spelled) < 4096 {
		b := ops[0]
		ops = ops[1:]
		switch {
		case b < 0x40:
			n := min(int(b), len(ops))
			put(ops[:n])
			ops = ops[n:]
		case b < 0x80:
			if len(spelled) > 0 {
				put(spelled[int(b-0x40)%len(spelled)])
			}
		case b < 0xf0:
			for range 8 * int(b-0x7f) {
				count++
				put(binary.AppendUvarint([]byte{'g'}, uint64(count)))
			}
		case big < 8:
			big++
			size := 2*pageSize + 1
			switch b {
			case 0xf0:
				size = pageSize - 3 // a header byte and a 2-byte length
			case 0xf1:
				size = pageSize
			}
			put(bytes.Repeat([]byte{byte(big)}, size))
		}
	}
}

// An identity whose entry fills a run's page to the last byte leaves the next
// to a new page, one that outgrows a page takes one of its own, and the entry
// after such a page starts a block on a page of its own; the keys fuzzOps
// spells for those cases are exactly those sizes. Sorted, the run says the
// three big keys before x and y, each on a page of its own, and x and y
// share the last.
func TestDeliveredSetPageBoundaries(t *testing.T) {
	defer func(m int) { recentMax = m }(recentMax)
	recentMax = 5
	var s deliveredSet
	var keys [][]byte
	fuzzOps([]byte{0xf0, 0x01, 'x', 0xf1, 0x01, 'y', 0xf2}, func(k []byte) {
		s.add(k)
		keys = append(keys, k)
	})
	if len(s.runs) != 1 || s.rn != 0 {
		t.Fatalf("five keys left %d runs and %d recent identities, want 1 and 0", len(s.runs), s.rn)
	}
	r := s.runs[0]
	var sizes []int
	for _, p := range r.pages {
		sizes = append(sizes, len(p))
	}
	if want := []int{pageSize, pageSize + 3, 2*pageSize + 4, 4}; !slices.Equal(sizes, want) {
		t.Fatalf("the run's pages hold %v bytes, want %v", sizes, want)
	}
	if want := []uint32{0, 1 << 12, 2 << 12, 3 << 12}; !slices.Equal(r.blocks, want) {
		t.Fatalf("the run's blocks start at %x, want %x", r.blocks, want)
	}
	for _, k := range keys {
		if !s.has(k) || s.has(append(slices.Clip(k), 0)) || s.has(k[:len(k)-1]) {
			t.Fatalf("the run lost %.20q, or holds a key beside it", k)
		}
	}
}

// deliveredBytesPerIdentityCeiling bounds the heap a delivered set takes an
// identity, over 10^5 typed identities shaped like those of the bench's
// tcp-hot workload: a query ref under 8, times under 2^13 and two integral
// values under 2^13, about 10.5 B each. 11.4 B measured (24.9 while every
// identity sat, behind its length, in a 64 KiB chunk, found through a probe
// table that doubled at 3/4 full), plus 15 %.
const deliveredBytesPerIdentityCeiling = 13.0

func TestDeliveredSetBytesPerIdentity(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector keeps shadow memory of its own")
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	rng := rand.New(rand.NewSource(1))
	value := func() relation.Value { return relation.N(float64(rng.Intn(1 << 13))) }
	before := heap()
	s := new(deliveredSet)
	var buf [keyScratch]byte
	for s.len() < 100000 {
		n := Notification{QueryKey: fmt.Sprintf("peer%d#1", rng.Intn(8)), LeftPubT: int64(rng.Intn(1 << 13)),
			RightPubT: int64(rng.Intn(1 << 13)), Values: []relation.Value{value(), value()}}
		s.add(s.identity(buf[:0], n))
	}
	perIdentity := float64(int64(heap())-int64(before)) / float64(s.len())
	runtime.KeepAlive(s)
	t.Logf("%.2f B an identity (ceiling %.1f)", perIdentity, deliveredBytesPerIdentityCeiling)
	if perIdentity > deliveredBytesPerIdentityCeiling {
		t.Fatalf("%.2f B an identity, ceiling %.1f: see deliveredBytesPerIdentityCeiling", perIdentity, deliveredBytesPerIdentityCeiling)
	}
}

// Publication times are unique per process only, so two matches in different
// processes may share the query and both times and differ only in their
// projected values: both are delivered, and neither is taken for a repeat of
// the other.
func TestRecordKeepsMatchesApartByValues(t *testing.T) {
	env := newTestEnv(t, 8, Config{Algorithm: SAI})
	a := Notification{QueryKey: "peer5#2", Subscriber: "peer5", Values: []relation.Value{relation.N(1), relation.S("x")}, LeftPubT: 9, RightPubT: 11}
	b := a
	b.Values = []relation.Value{relation.N(1), relation.S("y")}
	env.eng.record(a)
	env.eng.record(b)
	if got, dups := env.eng.NotificationCount(), env.net.Traffic().Duplicates("notification"); got != 2 || dups != 0 {
		t.Fatalf("two matches apart by one value counted %d, %d of them as duplicates; want 2 and 0", got, dups)
	}
	env.eng.record(b)
	if got, dups := env.eng.NotificationCount(), env.net.Traffic().Duplicates("notification"); got != 2 || dups != 1 {
		t.Fatalf("a repeat moved the count to %d with %d duplicates, want 2 and 1", got, dups)
	}
}

// A snapshot whose Delivered holds an entry that does not end in two integer
// fields is refused, and so is one whose Identities holds an entry that no
// notification's identity spells: the error names the entry.
func TestRestoreRefusesMalformedDelivered(t *testing.T) {
	env := newTestEnv(t, 8, Config{Algorithm: SAI})
	env.eng.OnNotify(func(Notification) {})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 1, rTuple(env, 1, 2, 0))
	env.publish(t, 2, sTuple(env, 3, 2, 0))
	text := []string{"peer0#1|1|3|x", "peer0#1|7", "", "peer0#1|1|", "peer0#1|9223372036854775808|1"}
	spelled := []string{
		"",                            // no key
		"\x09peer0#1",                 // a key past the end
		"\x07peer0#1",                 // no times
		"\x07peer0#1\x02\x04\x03",     // a value of kind 3
		"\x07peer0#1\x02\x04\x0ca",    // a string past the end
		"\x07peer0#1\x02\x04\x02\x00", // a float of one byte
		"\x07peer0#1\x02\x04\x02\x00\x00\x00\x00\x00\x00\xf0\x3f", // 1 said as a float
	}
	for i, bad := range append(text, spelled...) {
		meta, nodes := env.eng.ExportSnapshot(nil)
		m := meta.(snapMetaMsg)
		if len(m.Identities) != 1 || len(m.Delivered) != 0 {
			t.Fatalf("the snapshot carries %d identities and %d text ones, want 1 and 0", len(m.Identities), len(m.Delivered))
		}
		if i < len(text) {
			m.Delivered = append(m.Delivered, bad)
		} else {
			m.Identities = append(m.Identities, bad)
		}
		var w wire.Buffer
		if err := EncodeMessage(&w, m); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeMessage(wire.NewReader(w.Bytes()), env.catalog)
		if err != nil {
			t.Fatal(err)
		}
		fresh := newTestEnv(t, len(env.nodes), env.eng.Config())
		_, err = fresh.eng.RestoreSnapshot(decoded, nodes)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Fatalf("restoring entry %q: err = %v, want one naming it", bad, err)
		}
	}
}

// A checkpoint keeps N(1) and S("1") two matches, and a parent build's text
// identity one: an engine restored from a parent's snapshot suppresses the
// replay of the match it lists, and once it has delivered both N(1) and
// S("1"), its own checkpoint restores into an engine that knows all three as
// delivered, suppresses a replay of each, and writes the parent's entry back
// as it came.
func TestRestoredIdentitiesKeepTheirKinds(t *testing.T) {
	num := Notification{QueryKey: "peer5#2", Subscriber: "peer5", Values: []relation.Value{relation.N(1)}, LeftPubT: 9, RightPubT: 11}
	str, parent, fresh := num, num, num
	str.Values = []relation.Value{relation.S("1")}
	parent.Values = []relation.Value{relation.N(2)}
	fresh.Values = []relation.Value{relation.N(3)}

	// What a parent build wrote for an engine whose consumer took parent.
	env := newTestEnv(t, 8, Config{Algorithm: SAI})
	meta, _ := env.eng.ExportSnapshot(nil)
	m := meta.(snapMetaMsg)
	m.Delivered, m.Count = []string{"peer5#2|2|9|11"}, 1
	restore := func(meta chord.Message, nodes []NodeSnapshot) (*testEnv, *int) {
		t.Helper()
		var w wire.Buffer
		if err := EncodeMessage(&w, meta); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeMessage(wire.NewReader(w.Bytes()), env.catalog)
		if err != nil {
			t.Fatal(err)
		}
		out := newTestEnv(t, 8, env.eng.Config())
		consumed := new(int)
		out.eng.OnNotify(func(Notification) { *consumed++ })
		if _, err := out.eng.RestoreSnapshot(decoded, nodes); err != nil {
			t.Fatal(err)
		}
		return out, consumed
	}
	replay := func(what string, env *testEnv, consumed *int, ns ...Notification) {
		t.Helper()
		count, dups := env.eng.NotificationCount(), env.net.Traffic().Duplicates("notification")
		for _, n := range ns {
			env.eng.record(n)
		}
		if got := env.net.Traffic().Duplicates("notification") - dups; got != int64(len(ns)) || env.eng.NotificationCount() != count || *consumed != 0 {
			t.Fatalf("%s: of %d replays %d were suppressed, the count moved %d -> %d and the consumer took %d",
				what, len(ns), got, count, env.eng.NotificationCount(), *consumed)
		}
	}

	first, consumed := restore(m, nil)
	replay("restored from a parent's snapshot", first, consumed, parent)
	first.eng.record(num)
	first.eng.record(str)
	if got := first.eng.NotificationCount(); got != 3 || *consumed != 2 {
		t.Fatalf("N(1) and S(\"1\") moved the count to %d and reached the consumer %d times, want 3 and 2", got, *consumed)
	}

	meta, nodes := first.eng.ExportSnapshot(nil)
	if m := meta.(snapMetaMsg); len(m.Identities) != 2 || !slices.Equal(m.Delivered, []string{"peer5#2|2|9|11"}) {
		t.Fatalf("the checkpoint carries %d typed identities and text ones %q, want 2 and the parent's", len(m.Identities), m.Delivered)
	}
	second, consumed := restore(meta, nodes)
	second.eng.mu.Lock()
	typed, text := second.eng.delivered.len(), second.eng.legacy.len()
	second.eng.mu.Unlock()
	if known := second.eng.KnownDeliveryKeys(); typed != 2 || text != 1 || len(known) != 3 {
		t.Fatalf("restored, the engine knows %d typed and %d text identities (%q), want 2 and 1", typed, text, known)
	}
	replay("restored from its own checkpoint", second, consumed, num, str, parent)
	second.eng.record(fresh)
	if got := second.eng.NotificationCount(); got != 4 || *consumed != 1 {
		t.Fatalf("a fresh match moved the count to %d and reached the consumer %d times, want 4 and 1", got, *consumed)
	}
}
