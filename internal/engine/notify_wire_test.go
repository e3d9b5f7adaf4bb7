package engine

import (
	"bytes"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// A batch says what its subscriber reads (Section 4.6): each key past the
// subscriber the batch names once, the values and the times. It says neither
// the address its evaluator delivered by nor a delivery time, so those come
// back "" and 0, and everything else as sent. Through a long-lived codec every
// key is the memo's one string.
func TestNotificationSaysWhatItsSubscriberReads(t *testing.T) {
	env := newTestEnv(t, 16, Config{Algorithm: SAI})
	qs := []*query.Query{
		env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`),
		env.subscribe(t, 0, `SELECT R.C, S.F FROM R, S WHERE R.B = S.E`),
	}
	su := sTuple(env, 3, 7, 1).WithPubT(11)
	var batch []Notification
	for i, q := range []*query.Query{qs[0], qs[0], qs[1], qs[0], qs[1]} {
		n, err := buildNotification(q, query.SideLeft, rTuple(env, float64(i), 7, 2).WithPubT(int64(i)), su)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, n)
	}
	sub := env.node(0)
	msg := &notifyMsg{Subscriber: sub.Key(), Batch: batch}
	var w wire.Buffer
	if err := EncodeMessage(&w, msg); err != nil {
		t.Fatal(err)
	}
	if MessageSize(msg) != w.Len() {
		t.Fatalf("Size() = %d, the encoding is %d bytes", MessageSize(msg), w.Len())
	}
	if bytes.Contains(w.Bytes(), []byte(sub.IP())) || bytes.Count(w.Bytes(), []byte(sub.Key())) != 1 {
		t.Fatalf("the batch says its address or says its subscriber more than once:\n%x", w.Bytes())
	}
	codec := NewWireCodec(env.catalog)
	for round := 0; round < 2; round++ {
		got, err := codec.Decode(wire.NewReader(w.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		g := got.(*notifyMsg)
		if g.Subscriber != msg.Subscriber || len(g.Batch) != len(batch) {
			t.Fatalf("decoded %+v", g)
		}
		for i, n := range g.Batch {
			want := batch[i]
			want.subscriberIP = ""
			if n.QueryKey != want.QueryKey || n.Subscriber != want.Subscriber || !slices.EqualFunc(n.Values, want.Values, relation.Value.Equal) ||
				n.LeftPubT != want.LeftPubT || n.RightPubT != want.RightPubT || n.DeliveredAt != 0 || n.subscriberIP != "" {
				t.Fatalf("notification %d decoded as %+v, want %+v", i, n, want)
			}
			if memo := codec.memo.Joined(n.QueryKey, nil); unsafe.StringData(memo) != unsafe.StringData(n.QueryKey) {
				t.Fatalf("notification %d: its key is not the memo's", i)
			}
		}
		var again wire.Buffer
		if err := EncodeMessage(&again, g); err != nil || !bytes.Equal(again.Bytes(), w.Bytes()) {
			t.Fatalf("the decoded batch encodes as (%v)\n%x, not\n%x", err, again.Bytes(), w.Bytes())
		}
	}

	// A batch one notification of which the lean layout cannot say — another
	// subscriber's, or one delivered — goes as every build before it wrote it.
	for what, odd := range map[string]func(*Notification){
		"another subscriber's": func(n *Notification) { n.Subscriber = "peer9" },
		"delivered":            func(n *Notification) { n.DeliveredAt = 40 },
		"keyed elsewhere":      func(n *Notification) { n.QueryKey = "peer9#1" },
	} {
		full := &notifyMsg{Subscriber: sub.Key(), Batch: slices.Clone(batch)}
		odd(&full.Batch[2])
		var fw wire.Buffer
		if err := EncodeMessage(&fw, full); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(fw.Bytes(), []byte(sub.IP())) {
			t.Errorf("%s: the batch went lean", what)
		}
		got, err := DecodeMessage(wire.NewReader(fw.Bytes()), env.catalog)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i, n := range got.(*notifyMsg).Batch {
			if w := full.Batch[i]; n.ContentKey() != w.ContentKey() || n.Subscriber != w.Subscriber || n.DeliveredAt != w.DeliveredAt || n.subscriberIP != w.subscriberIP {
				t.Fatalf("%s: notification %d decoded as %+v, want %+v", what, i, n, w)
			}
		}
	}
}

// The benchmark's batch, pinned: one daemon node's query over the benchmark's
// relations, eight matches of one publication — a hot key's — with Id values
// in the hundred thousands. 124 bytes; 267 while the batch's first key went in
// full and each notification said the address and a delivery time.
func TestBenchShapedNotificationSize(t *testing.T) {
	r := relation.MustSchema("R3", "Id", "A", "B", "C")
	s := relation.MustSchema("S3", "Id", "A", "B", "C")
	catalog := relation.MustCatalog(r, s)
	net := chord.New(chord.Config{})
	nodes := net.AddNodes("peer", 256)
	eng := New(net, catalog, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 1})
	q, err := eng.Subscribe(nodes[183], query.MustParse(catalog, `SELECT R3.Id, S3.Id FROM R3, S3 WHERE R3.A = S3.A`))
	if err != nil {
		t.Fatal(err)
	}
	su := relation.MustTuple(s, relation.N(190417), relation.N(4417), relation.N(4412), relation.N(90211)).WithPubT(2048)
	var batch []Notification
	for i := 0; i < 8; i++ {
		tu := relation.MustTuple(r, relation.N(float64(183402+97*i)), relation.N(4417), relation.N(4412), relation.N(90211)).WithPubT(int64(1900 + 13*i))
		n, err := buildNotification(q, query.SideLeft, tu, su)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, n)
	}
	msg := &notifyMsg{Subscriber: q.Subscriber(), Batch: batch}
	const ceiling = 130 // 124, and 5 %
	size := MessageSize(msg)
	t.Logf("the benchmark's batch of eight notifications is %d bytes (ceiling %d)", size, ceiling)
	if size > ceiling {
		t.Fatalf("the benchmark's batch of eight notifications is %d bytes, ceiling %d", size, ceiling)
	}
	var w wire.Buffer
	if err := EncodeMessage(&w, msg); err != nil || w.Len() != size {
		t.Fatalf("encoded in %d bytes (%v), sized %d", w.Len(), err, size)
	}
}

// hostileNotifications hand-writes notification batches no encoder writes: a
// '#'-led key in a snapshot's Sink, which names no subscriber to lead it; a
// lean batch whose first key is "", with no predecessor to stand for; a lean
// key whose length runs past the frame; a key in full behind a lean one; a
// value count past the bytes left. "whole" is a well-formed lean batch of sub,
// "mixed" one whose notifications say 1, 3, 0 and 2 values (a decoder cuts
// them all from one array), and "sink" a Sink with a key in full, the bytes
// the forged ones differ from.
func hostileNotifications(sub string) map[string][]byte {
	// batch writes a lean batch whose i-th notification says counts[i]
	// values and carries at most four: a count above that is forged.
	batch := func(counts []int, keys ...string) []byte {
		var w wire.Buffer
		w.PutUvarint(uint64(tagNotify))
		w.PutString(sub)
		w.PutUvarint(uint64(len(keys)))
		for i, k := range keys {
			w.PutString(k)
			w.PutUvarint(uint64(counts[i]))
			for j := 0; j < min(counts[i], 4); j++ {
				putValue(&w, relation.N(float64(i+j)))
			}
			w.PutVarint(int64(i)) // LeftPubT
			w.PutVarint(9)        // RightPubT
		}
		return w.Bytes()
	}
	lean := func(keys ...string) []byte { // one value each
		counts := make([]int, len(keys))
		for i := range counts {
			counts[i] = 1
		}
		return batch(counts, keys...)
	}
	sink := func(key string) []byte {
		var w wire.Buffer
		w.PutUvarint(uint64(tagSnapMeta))
		w.PutVarint(12)          // Clock
		for i := 0; i < 6; i++ { // Nodes, Down, Seq, Subs, Multi, Conds
			w.PutUvarint(0)
		}
		w.PutUvarint(1) // one delivered notification
		for _, s := range []string{key, sub, ""} {
			w.PutString(s)
		}
		w.PutUvarint(0) // no values
		for _, v := range []int64{1, 2, 3} {
			w.PutVarint(v)
		}
		w.PutUvarint(0) // HotEpochs
		w.PutUvarint(0) // HotCounts, where PR 20 ended a meta
		return w.Bytes()
	}
	cut := lean("#1")
	cut[1+1+len(sub)+1] = 0x7f // the key's length, past the bytes left
	return map[string][]byte{
		"whole":                             lean("#1", "", "#2"),
		"sink":                              sink(sub + "#1"),
		"a '#'-led key in a Sink":           sink("#1"),
		"a lean batch led by \"\"":          lean("", "#1"),
		"a lean key past the frame":         cut,
		"a full key behind a lean one":      lean("#1", sub+"#2"),
		"mixed":                             batch([]int{1, 3, 0, 2}, "#1", "", "#2", "#3"),
		"a value count past the bytes left": batch([]int{2, 100}, "#1", "#2"),
	}
}

// A lean layout's marker stands only where a parent wrote no key: every batch
// hostileNotifications forges fails, alone and through a long-lived codec, and
// the bytes they are forged from decode.
func TestHostileNotificationFailsToDecode(t *testing.T) {
	catalog, _ := codecFixtures(t)
	codec := NewWireCodec(catalog)
	for what, data := range hostileNotifications("peer5") {
		m, err := DecodeMessage(wire.NewReader(data), catalog)
		_, memoErr := codec.Decode(wire.NewReader(data))
		ok := what == "whole" || what == "mixed" || what == "sink"
		if (err == nil) != ok || (memoErr == nil) != ok {
			t.Errorf("%s: decode said %v, through a codec %v", what, err, memoErr)
		}
		if what == "mixed" && err == nil {
			var counts []int
			for _, n := range m.(*notifyMsg).Batch {
				counts = append(counts, len(n.Values))
			}
			if !slices.Equal(counts, []int{1, 3, 0, 2}) {
				t.Errorf("mixed: decoded value counts %v, want [1 3 0 2]", counts)
			}
		}
	}
}

// Stored mail crosses a process hand-off in the lean layout, and the
// subscriber, back, reads from it what the evaluators sent.
func TestStoredMailCrossesAHandoff(t *testing.T) {
	const pair = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	env := newTestEnv(t, 32, Config{Algorithm: SAI})
	sub := env.node(0)
	env.subscribe(t, 0, pair)
	env.subscribe(t, 0, pair+` AND R.C = 1`)
	for i := 0; i < 3; i++ {
		env.publish(t, 5+i, rTuple(env, float64(i), float64(i), 1))
	}
	env.net.Leave(sub)
	env.eng.Detach(sub)
	for i := 0; i < 3; i++ {
		env.publish(t, 9+i, sTuple(env, float64(i), float64(i), 0))
	}
	holder := env.net.OracleSuccessor(id.Hash(sub.Key()))
	var want []string
	for _, n := range env.eng.state(holder).storedNotifs[sub.Key()] {
		want = append(want, n.ContentKey())
	}
	if len(want) != 6 || len(env.eng.Notifications()) != 0 {
		t.Fatalf("%d notifications stored for the offline subscriber, %d delivered; want 6 and 0", len(want), len(env.eng.Notifications()))
	}
	msg, ok := env.eng.ExportHandoff(holder)
	if !ok || len(msg.(handoffMsg).Notifs) != 1 {
		t.Fatalf("the holder's hand-off carries %+v", msg)
	}
	var w wire.Buffer
	if err := EncodeMessage(&w, msg); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(w.Bytes(), []byte(sub.IP())) || MessageSize(msg) != w.Len() {
		t.Fatalf("the hand-off says the subscriber's address, or is sized %d for %d bytes", MessageSize(msg), w.Len())
	}
	decoded, err := DecodeMessage(wire.NewReader(w.Bytes()), env.catalog)
	if err != nil {
		t.Fatal(err)
	}
	env.eng.state(holder).HandleMessage(holder, decoded)
	if _, err := env.eng.RejoinNode(sub.Key()); err != nil {
		t.Fatal(err)
	}
	got := contentKeys(env.eng.Notifications())
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("the subscriber, back, read\n%v\nthe evaluators sent\n%v", got, want)
	}
	for _, n := range env.eng.Notifications() {
		if n.DeliveredAt == 0 || n.Subscriber != sub.Key() {
			t.Fatalf("replayed as %+v", n)
		}
	}
}

// A holder stores at most storedMailMax notifications for a subscriber: the
// ones past them are booked lost, and the subscriber, back, reads the ones
// stored.
func TestStoredMailIsCapped(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI})
	sub := env.node(0)
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.net.Leave(sub)
	env.eng.Detach(sub)
	holder := env.net.OracleSuccessor(id.Hash(sub.Key()))
	const over = 3
	batch := make([]Notification, storedMailMax+over)
	for i := range batch {
		n, err := buildNotification(q, query.SideLeft, rTuple(env, float64(i), 7, 0), sTuple(env, float64(i), 7, 0))
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = n
	}
	lost := env.net.Traffic().TotalLost()
	// Two messages, the second admitted in part.
	for _, part := range [][]Notification{batch[:storedMailMax-1], batch[storedMailMax-1:]} {
		env.eng.state(holder).HandleMessage(holder, &notifyMsg{Subscriber: sub.Key(), Batch: part})
	}
	if stored, lost := len(env.eng.state(holder).storedNotifs[sub.Key()]), env.net.Traffic().TotalLost()-lost; stored != storedMailMax || lost != over {
		t.Fatalf("%d notifications sent to an offline subscriber: %d stored and %d lost, want %d and %d", len(batch), stored, lost, storedMailMax, over)
	}
	if _, err := env.eng.RejoinNode(sub.Key()); err != nil {
		t.Fatal(err)
	}
	if got := env.eng.NotificationCount(); got != storedMailMax {
		t.Fatalf("the subscriber, back, read %d notifications, want the %d stored", got, storedMailMax)
	}
}
