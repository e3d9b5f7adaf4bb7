package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// FuzzDeliveredSet holds the delivered set to a map over add sequences that
// ops spells (fuzzOps): fresh keys, the empty one included, repeats, bursts
// that grow the table through several rehashes, and keys that fill a chunk
// exactly or outgrow one. With collide every key hashes to one of four values,
// so probing walks long runs of other keys. Every add must report what the
// map says, and at the end the set must hold exactly the map's keys, in the
// order they were first added. Beside it, the notification left/right/val
// names must survive deliveryKey -> identity -> deliveryKey, whatever the
// times' signs and however many '|' val holds.
func FuzzDeliveredSet(f *testing.F) {
	f.Add([]byte{0, 3, 'a', 'b', 'c', 0x40, 0x41, 0x42, 0x85, 0x41}, false, int64(9), int64(-11), "a|b")
	f.Add([]byte{0xf0, 0x01, 'x', 0xf1, 0x40, 0x41, 0xf2, 0x42, 0x01, 'y'}, false, int64(math.MaxInt64), int64(math.MinInt64), "|")
	f.Add([]byte{0x90, 0x43, 0x90, 0x4f, 0x00, 0x40}, true, int64(-1), int64(math.MaxInt64), "1|2|3")
	f.Add([]byte{0x02, 'p', 'q', 0x02, 'p', 'q', 0xf0, 0xf0, 0x8f, 0x7f}, true, int64(0), int64(0), "")
	f.Fuzz(func(t *testing.T, ops []byte, collide bool, left, right int64, val string) {
		if collide {
			defer func(c func(uint64) uint64) { indexCollide = c }(indexCollide)
			indexCollide = func(h uint64) uint64 { return h % 4 }
		}
		var s deliveredSet
		oracle := make(map[string]bool)
		var order [][]byte
		fuzzOps(ops, func(k []byte) {
			if fresh := s.add(k); fresh == oracle[string(k)] {
				t.Fatalf("add(%.20q) = %v after %d keys, the map holds it: %v", k, fresh, len(order), oracle[string(k)])
			}
			if !oracle[string(k)] {
				oracle[string(k)] = true
				order = append(order, append([]byte(nil), k...))
			}
		})
		if s.len() != len(oracle) {
			t.Fatalf("the set holds %d keys, the map %d", s.len(), len(oracle))
		}
		i := 0
		s.each(func(id []byte) {
			if i >= len(order) || !bytes.Equal(id, order[i]) {
				t.Fatalf("identity %d of the set is %.20q, the map's is not", i, id)
			}
			i++
		})
		for _, k := range order {
			if _, found := s.probe(k, indexHash(k)); !found {
				t.Fatalf("the set lost %.20q", k)
			}
		}

		n := Notification{QueryKey: "peer5#2", Values: []relation.Value{relation.S(val), relation.N(1.5)}, LeftPubT: left, RightPubT: right}
		key := deliveryKey(n)
		id, err := appendKeyIdentity(nil, key)
		if err != nil {
			t.Fatalf("deliveryKey %q does not parse: %v", key, err)
		}
		if !bytes.Equal(id, n.appendIdentity(nil)) {
			t.Fatalf("deliveryKey %q parses to identity %q, the notification's is %q", key, id, n.appendIdentity(nil))
		}
		if got := identityKey(id); got != key {
			t.Fatalf("identity of %q renders as %q", key, got)
		}
	})
}

// fuzzOps calls add with each key ops spells, one per op byte b:
//
//	0x00-0x3f  a key of the next b bytes (of as many as are left)
//	0x40-0x7f  the (b-0x40)th key spelled so far, modulo their number
//	0x80-0xef  8*(b-0x7f) fresh keys, a counter's varint each
//	0xf0       a key whose length and prefix fill a chunk exactly
//	0xf1       a key of a chunk's size, which its prefix takes past a chunk
//	0xf2-0xff  a key of two chunks and a byte
//
// It spells at most 4096 keys, 8 of them a chunk long or more.
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
			size := 2*identChunkSize + 1
			switch b {
			case 0xf0:
				size = identChunkSize - 3 // a 3-byte length
			case 0xf1:
				size = identChunkSize
			}
			put(bytes.Repeat([]byte{byte(big)}, size))
		}
	}
}

// An identity that fills its chunk to the last byte leaves the next in a new
// chunk, and one past a chunk's size takes one of its own; the keys fuzzOps
// spells for those cases are exactly those sizes.
func TestDeliveredSetChunkBoundaries(t *testing.T) {
	var s deliveredSet
	fuzzOps([]byte{0xf0, 0x01, 'x', 0xf1, 0x01, 'y', 0xf2}, func(k []byte) { s.add(k) })
	want := []int{identChunkSize, 2, identChunkSize + 3, 2, 2*identChunkSize + 4}
	if len(s.chunks) != 5 {
		t.Fatalf("the identities fill %d chunks, want 5", len(s.chunks))
	}
	var got []int
	for _, c := range s.chunks {
		for len(c) > 0 {
			n, w := binary.Uvarint(c)
			got = append(got, w+int(n))
			c = c[w+int(n):]
		}
	}
	if len(got) != len(want) {
		t.Fatalf("stored sizes %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stored sizes %v, want %v", got, want)
		}
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
// fields is refused, and the error names the entry.
func TestRestoreRefusesMalformedDelivered(t *testing.T) {
	env := newTestEnv(t, 8, Config{Algorithm: SAI})
	env.eng.OnNotify(func(Notification) {})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 1, rTuple(env, 1, 2, 0))
	env.publish(t, 2, sTuple(env, 3, 2, 0))
	for _, bad := range []string{"peer0#1|1|3|x", "peer0#1|7", "", "peer0#1|1|", "peer0#1|9223372036854775808|1"} {
		meta, nodes := env.eng.ExportSnapshot(nil)
		m := meta.(snapMetaMsg)
		if len(m.Delivered) != 1 {
			t.Fatalf("the snapshot carries %d identities, want 1", len(m.Delivered))
		}
		m.Delivered = append(m.Delivered, bad)
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
			t.Fatalf("restoring Delivered entry %q: err = %v, want one naming it", bad, err)
		}
	}
}
