package engine

import (
	"fmt"
	"runtime"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// publicationAllocCeiling bounds the allocations of one SAI publication in
// allocStream: 8 measured with the value level indexed on demand — one stored
// copy for an S tuple, none for an R, and the vl-index message the one its
// al-index message embeds — and allocating per publication, group and stored
// item only, a stored rewrite being the one its join carried, its Key(q')
// derived and its trigger the publication, a join's group one array, a
// value-level bucket's first entries inside it, and a batch of notifications
// one slice, one values array and one array of notify messages whatever its
// size, each delivered identity cut from a shared chunk (9 while a join held
// a list of pointers and a bucket its entries apart; 12 while a walk allocated
// its recipient list and a vl-index or notify message was boxed per send; 17
// while every notification had a values array and an identity string of its
// own and a batch's slices grew by doubling; 18 while a rewriter projected
// each trigger; 20 while each had a wrapper and a key string; 38 while every
// lookup built its key as a string, every al-index message and stored rewrite
// was an allocation of its own and every multisend three slices; 61 with every tuple sent to and stored at all
// three of its value-level identifiers, 67 with a map in every bucket, 198
// before the compiled plan and the once-per-tuple keys), plus 15 %, rounded
// down. A Tuple.Project per triggered query costs more than the margin.
// Routing allocates nothing — a walk writes its recipients into its caller's
// stack array — so ring size and placement do not move the figure; a Go
// release that moves it is a reason to re-measure, not to add slack.
const publicationAllocCeiling = 9

// allocStream is the stream both ceilings are measured on: four subscribers
// of one join, then R and S tuples alternating, joining pairwise on a fresh
// key — every R stores the group's four rewrites, every S fires them. It
// returns a function publishing the next tuple.
func allocStream(t *testing.T, tuples int) (*testEnv, func()) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 1})
	for i := 0; i < 4; i++ {
		env.subscribe(t, i, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	}
	stream := make([]*relation.Tuple, 0, tuples+1)
	for i := 0; len(stream) < tuples; i++ {
		stream = append(stream, rTuple(env, float64(i), float64(1000+i), 1), sTuple(env, float64(i), float64(1000+i), 2))
	}
	next := 0
	return env, func() {
		if _, err := env.eng.Publish(env.node(next), stream[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
}

func TestPublicationAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const runs = 400
	env, publish := allocStream(t, runs+101)
	for i := 0; i < 100; i++ { // warm the identifier cache and the tables' first buckets
		publish()
	}
	before := env.eng.NotificationCount()
	perPub := testing.AllocsPerRun(runs, publish)
	if got := env.eng.NotificationCount() - before; got != 4*((runs+1)/2) {
		t.Fatalf("%d notifications over the measured stream, want %d", got, 4*((runs+1)/2))
	}
	t.Logf("%.0f allocations per publication (ceiling %d)", perPub, publicationAllocCeiling)
	if perPub > publicationAllocCeiling {
		t.Fatalf("%.0f allocations per publication, ceiling %d: see publicationAllocCeiling", perPub, publicationAllocCeiling)
	}
}

// A blind publisher sends each of its h vl-index messages as the one its
// al-index message embeds, in the walk that carries those: a publication's 2h
// sends allocate nothing, so it costs no more than one the rewriters keep to
// themselves. Under DAI-T, with no query posed, nothing is stored or matched
// anywhere, and the publisher that indexes on demand sends nothing once the
// rewriters have said nobody reads its attributes.
func TestBlindPublicationSendsNoVLIndexAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	perPub := func(blind bool) float64 {
		env := newTestEnv(t, 64, Config{Algorithm: DAIT, Seed: 1, BlindIndexing: blind})
		tuples := []*relation.Tuple{rTuple(env, 1, 7, 2), sTuple(env, 3, 7, 1)}
		next := 0
		publish := func() {
			if _, err := env.eng.Publish(env.node(5), tuples[next%len(tuples)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < 10; i++ { // the rewriters' verdicts, the identifier cache
			publish()
		}
		return testing.AllocsPerRun(200, publish)
	}
	onDemand, blind := perPub(false), perPub(true)
	t.Logf("a publication of arity %d allocates %.0f times blind, %.0f indexed on demand", 3, blind, onDemand)
	if blind > onDemand {
		t.Fatalf("a blind publication allocates %.0f times, %.0f more than one indexed on demand: its sends allocate", blind, blind-onDemand)
	}
}

// retainedBytesCeiling bounds what one publication of the same stream leaves
// on the heap — a tuple stored in the one value-level bucket a query reads
// (S under E; an R tuple is stored nowhere) or four stored rewrites and their
// shared target, whose trigger is the publication, the identifier-cache
// entries of the fresh key, and every other publication's four
// notifications, each an identity in delivered and a Notification in the
// sink: 667 measured (627 while the identities sat in a 64 KiB chunk the
// stream's first ones had allocated, not in a recent tier that the window
// fills to its capacity, a table of 8192 slots and 40 KB of arena pages, and
// freezes into a run; 660 while each identity said its query key in full and
// its values as text, 763 while each identity was a string in a map, 925
// while each query of a group recorded the target in a purge set of its own
// and the target said its want as two strings, 932 while each identity was a
// string of its own and each notification's values an array of their own,
// 964 while the target held a projected copy of the trigger, 1080 while each
// stored rewrite had a wrapper and a string of its Key(q'), 1136 while a
// stamped tuple copied its values and each stored rewrite and its times were
// allocations of their own, 1658 with a tuple stored under all three of its
// attributes, 1679 while an identity repeated its subscriber, 2439 with a map
// in every bucket), plus 15 %, rounded down. One eager map per bucket, or one
// tuple copy under an attribute nobody queries, costs more than the margin.
//
// retainedBytesCeilingConsumed bounds the same with an OnNotify callback
// taking the notifications: 310 measured (270 in a chunk, as above; 303
// while each identity said its query key in full and its values as text,
// 406 while each identity was a string in a map, 567 before the group's one
// purge list and the 64-byte target, 575 while each identity was a string of
// its own, 607 while the target held a projected trigger, 723 and 778 before
// the two changes before that, 1301 stored blind), plus 15 %. Of the 1679
// bytes, 21 were the repeated subscriber and 357 the sink's — per
// publication two 96-byte Notifications, their two 64-byte Values arrays and
// the slack of the slice that held them; an identity in delivered is what
// stays of a notification. One kept anywhere else costs more than the
// margin.
const (
	retainedBytesCeiling         = 767
	retainedBytesCeilingConsumed = 356
)

func TestRetainedBytesPerPublicationCeiling(t *testing.T) {
	retainedBytesPerPublication(t, false, retainedBytesCeiling)
}

func TestRetainedBytesPerPublicationCeilingConsumed(t *testing.T) {
	retainedBytesPerPublication(t, true, retainedBytesCeilingConsumed)
}

func retainedBytesPerPublication(t *testing.T, consumed bool, ceiling int64) {
	if raceEnabled {
		t.Skip("the race detector keeps shadow memory of its own")
	}
	const pubs = 2000
	env, publish := allocStream(t, pubs+100)
	if consumed {
		env.eng.OnNotify(func(Notification) {})
	}
	for i := 0; i < 100; i++ {
		publish()
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 0; i < pubs; i++ {
		publish()
	}
	perPub := (int64(heap()) - int64(before)) / pubs
	runtime.KeepAlive(publish) // the engine and the stream, live across both readings
	if got := len(env.eng.Notifications()); consumed && got != 0 || !consumed && got != 4*(pubs+100)/2 {
		t.Fatalf("consumed=%v: the engine recorded %d of the stream's %d notifications", consumed, got, 4*(pubs+100)/2)
	}
	t.Logf("%d bytes retained per publication (ceiling %d)", perPub, ceiling)
	if perPub > ceiling {
		t.Fatalf("%d bytes retained per publication, ceiling %d: see retainedBytesCeiling", perPub, ceiling)
	}
}

// Decoding what a receiver has decoded before must stay cheap: through a
// WireCodec whose memo is warm, the four rewrites of one group, keyed as a
// rewriter keys them, cost their message, their one array, their shared
// target and its trigger — no key, which stays derived, no query, no parse —
// and a lean batch of 1, 4 or 16 notifications for one subscriber its
// message, its slice and one array of every notification's values (the
// batch's subscriber is interned like its notifications'): 5 and 3 measured
// (6 while the rewrites were an array and a list of pointers to it; 10 and 3
// while each decoded key was a string; 3, 6 and 18 while each notification's
// values were an array of their own), and the ceilings are those plus 10 %,
// rounded down.
// One re-built query is 2 allocations, one key or un-interned identity string
// 1, a values array per notification 1 each: any passes its ceiling.
const (
	warmJoinDecodeAllocCeiling   = 5
	warmNotifyDecodeAllocCeiling = 3
)

func TestWarmDecodeAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	env := newTestEnv(t, 16, Config{Algorithm: SAI})
	tu := rTuple(env, 1, 7, 2).WithPubT(9)
	su := sTuple(env, 3, 7, 1).WithPubT(11)
	var rws []rewritten
	var notifs []Notification
	var target *rewriteTarget
	for i := 0; i < 4; i++ {
		q := env.subscribe(t, i, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		if target == nil {
			proj, err := tu.ProjectOnto(q.Projection(query.SideLeft))
			if err != nil {
				t.Fatal(err)
			}
			target = &rewriteTarget{IndexSide: query.SideLeft, Trigger: proj, Want: &relation.AttrRef{Rel: "S", Attr: "E"}, WantValue: relation.N(7)}
		}
		key, err := q.RewriteKey(target.Trigger, target.WantValue) // the key a rewriter derives
		if err != nil {
			t.Fatal(err)
		}
		rws = append(rws, *spelled(key, q, target))
		n, err := buildNotification(q, query.SideLeft, target.Trigger, su)
		if err != nil {
			t.Fatal(err)
		}
		notifs = append(notifs, n)
	}
	// A batch of n matches of the first subscriber's query, each with an S
	// tuple of its own.
	oneSubscriber := func(n int) []Notification {
		batch := make([]Notification, n)
		for i := range batch {
			var err error
			batch[i], err = buildNotification(rws[0].Orig, query.SideLeft, target.Trigger, sTuple(env, float64(i), 7, 1).WithPubT(int64(11+i)))
			if err != nil {
				t.Fatal(err)
			}
		}
		return batch
	}
	codec := NewWireCodec(env.catalog)
	for _, tc := range []struct {
		msg     chord.Message
		ceiling float64
	}{
		{&joinMsg{Rewrites: rws}, warmJoinDecodeAllocCeiling},
		{&notifyMsg{Subscriber: notifs[0].Subscriber, Batch: notifs[:1]}, warmNotifyDecodeAllocCeiling},
		{&notifyMsg{Subscriber: notifs[0].Subscriber, Batch: oneSubscriber(4)}, warmNotifyDecodeAllocCeiling},
		{&notifyMsg{Subscriber: notifs[0].Subscriber, Batch: oneSubscriber(16)}, warmNotifyDecodeAllocCeiling},
	} {
		var w wire.Buffer
		if err := codec.Encode(&w, tc.msg); err != nil {
			t.Fatal(err)
		}
		var r wire.Reader
		decode := func() {
			r.Reset(w.Bytes())
			if _, err := codec.Decode(&r); err != nil {
				t.Fatal(err)
			}
		}
		decode() // warm the memo
		allocs := testing.AllocsPerRun(200, decode)
		what := fmt.Sprintf("%T", tc.msg)
		if m, ok := tc.msg.(*notifyMsg); ok {
			what = fmt.Sprintf("a batch of %d notifications", len(m.Batch))
		}
		t.Logf("%s: %.0f allocations per warm decode (ceiling %.0f)", what, allocs, tc.ceiling)
		if allocs > tc.ceiling {
			t.Fatalf("%s: %.0f allocations per warm decode, ceiling %.0f", what, allocs, tc.ceiling)
		}
	}
}

// Sizing a message and encoding it into a buffer already grown allocate
// nothing, whatever the message — the al-index, sent by pointer, among them:
// the ledger sizes every delivery, and the walk's Coder and its copy of the
// message must stay on the stack.
func TestSizeAndEncodeAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	_, msgs := codecFixtures(t)
	if _, ok := msgs[1].(*alIndexMsg); !ok {
		t.Fatalf("fixture 1 is a %T, want the al-index, sent by pointer", msgs[1])
	}
	var w wire.Buffer
	for _, msg := range msgs {
		if allocs := testing.AllocsPerRun(100, func() { MessageSize(msg) }); allocs != 0 {
			t.Errorf("%T: MessageSize allocates %.0f times", msg, allocs)
		}
		// What Multisend calls per message: its size behind the one before it.
		prev := msgs[1]
		if allocs := testing.AllocsPerRun(100, func() { sizeAfter(msg, prev) }); allocs != 0 {
			t.Errorf("%T: Size behind a %T allocates %.0f times", msg, prev, allocs)
		}
		encode := func() {
			w.Reset()
			if err := EncodeMessage(&w, msg); err != nil {
				t.Fatal(err)
			}
		}
		encode() // grow the buffer
		if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
			t.Errorf("%T: EncodeMessage into a grown buffer allocates %.0f times", msg, allocs)
		}
	}
}

// A Coder must not drag its caller's Reader or Buffer to the heap with the
// catalog, memo and error it also refers to: a Reader made per message costs
// no allocation, a Buffer made per message the one that holds the bytes.
func TestCodecLeavesCallersReaderAndBufferOnTheStack(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	catalog, msgs := codecFixtures(t)
	codec := NewWireCodec(catalog)
	msg, ok := msgs[1].(*alIndexMsg) // a tuple, a string, an int, sent by pointer
	if !ok {
		t.Fatalf("fixture 1 is a %T, want the al-index", msgs[1])
	}
	var w wire.Buffer
	if err := codec.Encode(&w, msg); err != nil {
		t.Fatal(err)
	}
	var reused wire.Reader
	kept := testing.AllocsPerRun(100, func() {
		reused.Reset(w.Bytes())
		if _, err := codec.Decode(&reused); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(100, func() {
		if _, err := codec.Decode(wire.NewReader(w.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if fresh != kept {
		t.Errorf("decoding through a Reader of its own allocates %.0f times, through a reused one %.0f", fresh, kept)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		var own wire.Buffer
		if err := codec.Encode(&own, msg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("encoding into a Buffer of its own allocates %.0f times, want 1", allocs)
	}
}

// ackOnly acks every delivery to a live node without running its handler:
// what a sender allocates is then all an allocation count sees.
type ackOnly struct{}

func (ackOnly) Deliver(from, dst *chord.Node, msg chord.Message) bool { return dst.Alive() }

func (ackOnly) DeliverBatch(from, dst *chord.Node, msgs []chord.Message) []bool {
	acks := make([]bool, len(msgs))
	for i := range acks {
		acks[i] = dst.Alive()
	}
	return acks
}

// retractionAllocCeiling bounds what a rewriter allocates to retract a query:
// its purges are one array of messages in one batch, whatever their number, so
// a query whose rewrites went to 1, 8 or 40 evaluators costs the same. The
// ceiling is what a node's second retraction makes, 2 (the purge array and
// its batch; 6 for a fresh ring's first, 7, 17 and 52 while each purge was
// boxed and the target list grew by doubling), plus 10 %, rounded down.
const retractionAllocCeiling = 2

// With the JFRT on, every evaluator the rewriter reached is remembered, so
// each purge goes in one hinted hop and no walk's own buffers enter the count.
// The count is of the rewriter's second retraction, the steady state: the
// first also makes what a node makes once, such as its retraction memory.
func TestRetractionAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	retract := func(evaluators int) uint64 {
		env := newTestEnv(t, 256, Config{Algorithm: SAI, Strategy: StrategyLeft, UseJFRT: true, Seed: 1})
		first := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		for i := 0; i < evaluators; i++ {
			env.publish(t, 1+i, rTuple(env, float64(i), float64(100+i), 1))
		}
		var st *nodeState
		for _, n := range env.nodes {
			if s := env.eng.state(n); s.alqt["R+B"] != nil {
				st = s
			}
		}
		if got := env.eng.Census()["alqt_purge_entries"].Sum; got != evaluators {
			t.Fatalf("the rewriter recorded %d targets, want %d", got, evaluators)
		}
		env.net.SetTransport(ackOnly{})
		st.handleUnsub(&unsubMsg{QueryKey: first.Key(), Cond: first.ConditionKey(), Input: "R+B"})
		m := &unsubMsg{QueryKey: q.Key(), Cond: q.ConditionKey(), Input: "R+B"}
		sent := env.net.Traffic().Messages(kindUnsub)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st.handleUnsub(m)
		runtime.ReadMemStats(&after)
		if got := env.net.Traffic().Messages(kindUnsub) - sent; got != int64(evaluators) {
			t.Fatalf("the retraction sent %d purges, want %d", got, evaluators)
		}
		return after.Mallocs - before.Mallocs
	}
	one := retract(1)
	t.Logf("retracting a query stored at 1 evaluator allocates %d times (ceiling %d)", one, retractionAllocCeiling)
	if one > retractionAllocCeiling {
		t.Fatalf("retracting a query stored at 1 evaluator allocates %d times, ceiling %d", one, retractionAllocCeiling)
	}
	for _, n := range []int{8, 40} {
		if got := retract(n); got != one {
			t.Errorf("retracting a query stored at %d evaluators allocates %d times, at 1 evaluator %d", n, got, one)
		}
	}
}
