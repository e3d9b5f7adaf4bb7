package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// walkRecorder is a chord.Transport that acks every message and hands none
// over: it keeps what each walk delivered, which is the batch in the clockwise
// order Multisend rode it in.
type walkRecorder struct{ msgs []chord.Message }

func (r *walkRecorder) Deliver(from, dst *chord.Node, msg chord.Message) bool {
	r.msgs = append(r.msgs, msg)
	return true
}

func (r *walkRecorder) DeliverBatch(from, dst *chord.Node, msgs []chord.Message) []bool {
	r.msgs = append(r.msgs, msgs...)
	acks := make([]bool, len(msgs))
	for i := range acks {
		acks[i] = true
	}
	return acks
}

// frameAboard encodes aboard the way transport.DeliverBatch fills a frame —
// the first entry behind nothing, each next behind the one before it — and
// returns the entries' msgBytes.
func frameAboard(t *testing.T, codec WireCodec, aboard []chord.Message) [][]byte {
	t.Helper()
	entries := make([][]byte, len(aboard))
	var prev chord.Message
	for i, msg := range aboard {
		var w wire.Buffer
		if err := codec.EncodeAfter(&w, msg, prev); err != nil {
			t.Fatalf("%T behind %T: %v", msg, prev, err)
		}
		if size := codec.SizeAfter(msg, prev); size != w.Len() {
			t.Fatalf("%T behind %T: SizeAfter says %d, the encoding is %d bytes", msg, prev, size, w.Len())
		}
		entries[i], prev = w.Bytes(), msg
	}
	return entries
}

// The ledger is the encoder. For index batches as the engine builds them —
// arity 1 to 6 under SAI, indexing on demand and blind, blind DAI-Q and DAI-T,
// and DAI-V — mixed with join and query messages, two publications' batches
// interleaved, and some tuples present twice by value but not by pointer (what
// a socket makes of one tuple that arrives in two deliveries), for a
// rewriter's purge walk, and for every suffix of the clockwise order, which is
// every list a leg can find aboard: the bytes Multisend charges for a leg with
// that list aboard are the bytes of the frame the transport would write for
// it, entry by entry, and decoding that frame the way handleBatchInto does and
// encoding it again yields the same bytes.
func TestLedgerIsTheEncoder(t *testing.T) {
	var schemas []*relation.Schema
	for arity := 1; arity <= 6; arity++ {
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("A%d", i)
		}
		schemas = append(schemas, relation.MustSchema(fmt.Sprintf("R%d", arity), attrs...))
	}
	catalog, fixtures := codecFixtures(t, schemas...)
	extras := []chord.Message{fixtures[0], fixtures[3]} // a queryMsg, a joinMsg: neither carries a tuple
	rng := rand.New(rand.NewSource(25))
	shared, legsChecked := 0, 0
	for _, cfg := range []Config{
		{Algorithm: SAI}, {Algorithm: SAI, BlindIndexing: true}, {Algorithm: DAIQ, BlindIndexing: true},
		{Algorithm: DAIT, BlindIndexing: true}, {Algorithm: DAIV},
	} {
		alg := cfg.Algorithm
		net := chord.New(chord.Config{})
		nodes := net.AddNodes("peer", 64)
		eng := New(net, catalog, cfg)
		rec := &walkRecorder{}
		net.SetTransport(rec)
		for _, schema := range schemas {
			// Two publications of one relation, the second a different tuple.
			var walks [2][]chord.Message
			for p := range walks {
				vals := make([]relation.Value, schema.Arity())
				for i := range vals {
					if vals[i] = relation.N(float64(rng.Intn(50))); rng.Intn(3) == 0 {
						vals[i] = relation.S(fmt.Sprintf("v%d", rng.Intn(50)))
					}
				}
				rec.msgs = nil
				if _, err := eng.Publish(nodes[rng.Intn(len(nodes))], relation.MustTuple(schema, vals...)); err != nil {
					t.Fatal(err)
				}
				walks[p] = rec.msgs
			}
			for _, aboard := range [][]chord.Message{walks[0], interleave(rng, walks[0], walks[1], extras)} {
				// Sameness is decided on values: the copies change no byte.
				codec := NewWireCodec(catalog)
				plain := frameAboard(t, codec, aboard)
				aboard = reboxSome(t, rng, aboard)
				for i, e := range frameAboard(t, codec, aboard) {
					if !bytes.Equal(e, plain[i]) {
						t.Fatalf("%v: entry %d (%T) encodes as %x with the tuple it shares by pointer, %x with a copy of it", alg, i, aboard[i], plain[i], e)
					}
				}
				for from := range aboard {
					shared += checkLeg(t, catalog, aboard[from:], aboard[:from])
					legsChecked++
				}
			}
		}
	}
	if shared == 0 || legsChecked < 500 {
		t.Fatalf("%d legs checked, %d bytes shared: the batches exercise nothing", legsChecked, shared)
	}
	// A retraction: every leg of a rewriter's purge walk, each purge behind one
	// of the same query.
	env, _, purges := retractionWalk(t)
	shared = 0
	for from := range purges {
		shared += checkLeg(t, env.catalog, purges[from:], purges[:from])
	}
	if shared == 0 {
		t.Fatal("the purge walk shares nothing")
	}
}

// interleave merges the lists in a seeded order that keeps each list's own.
func interleave(rng *rand.Rand, lists ...[]chord.Message) []chord.Message {
	var out []chord.Message
	for {
		left := lists[:0:0]
		for _, l := range lists {
			if len(l) > 0 {
				left = append(left, l)
			}
		}
		if len(left) == 0 {
			return out
		}
		lists = left
		i := rng.Intn(len(lists))
		out, lists[i] = append(out, lists[i][0]), lists[i][1:]
	}
}

// reboxSome gives one index message in three a copy of its tuple: equal by
// value, another pointer.
func reboxSome(t *testing.T, rng *rand.Rand, msgs []chord.Message) []chord.Message {
	t.Helper()
	out := make([]chord.Message, len(msgs))
	for i, msg := range msgs {
		tu := carried(msg).Tuple
		if tu != nil && rng.Intn(3) == 0 {
			cp, err := relation.StampedTuple(tu.Schema(), tu.Values(), tu.PubT())
			if err != nil {
				t.Fatal(err)
			}
			switch m := msg.(type) {
			case *alIndexMsg:
				c := *m
				c.T = cp
				msg = &c
			case *vlIndexMsg:
				m.T = cp
				msg = m
			}
			if carried(msg).Tuple == tu {
				t.Fatalf("%T kept its tuple", msg)
			}
		}
		out[i] = msg
	}
	return out
}

// checkLeg holds one leg to the encoder: aboard is the list the leg moves,
// gone what the walk has delivered before it. It returns the bytes the frame
// saves over its messages standing alone.
func checkLeg(t *testing.T, catalog *relation.Catalog, aboard, gone []chord.Message) int {
	t.Helper()
	// What Multisend charges for this leg (chord.chargeBytes): every message
	// at its size behind the one before it in the clockwise order — for the
	// head that one is off the walk, and the head pays the difference.
	charged, alone := 0, 0
	for i, msg := range aboard {
		var prev chord.Message
		if i > 0 {
			prev = aboard[i-1]
		} else if len(gone) > 0 {
			prev = gone[len(gone)-1]
		}
		size, shared := sizeAfter(msg, prev)
		if charged += size; i == 0 {
			charged += shared
		}
		alone += MessageSize(msg)
	}
	entries := frameAboard(t, NewWireCodec(catalog), aboard)
	written := 0
	for _, e := range entries {
		written += len(e)
	}
	if charged != written {
		t.Fatalf("a leg with %d messages aboard is charged %d bytes, its frame is %d", len(aboard), charged, written)
	}
	// The receiving side, a codec of its own: decode each entry behind the
	// decoded one before it, then write the frame again.
	receiver := NewWireCodec(catalog)
	decoded := make([]chord.Message, len(entries))
	var prev chord.Message
	for i, e := range entries {
		msg, err := receiver.DecodeAfter(wire.NewReader(e), prev)
		if err != nil {
			t.Fatalf("entry %d (%T) of a frame of %d: %v", i, aboard[i], len(aboard), err)
		}
		if got, want := carried(msg), carried(aboard[i]); got.Key != want.Key || got.Input != want.Input || want.Tuple != nil && !got.Tuple.Equal(want.Tuple) {
			t.Fatalf("entry %d decoded to carry %+v, it was sent with %+v", i, got, want)
		}
		decoded[i], prev = msg, msg
	}
	for i, again := range frameAboard(t, receiver, decoded) {
		if !bytes.Equal(again, entries[i]) {
			t.Fatalf("entry %d (%T) re-encodes as\n%x\nit arrived as\n%x", i, aboard[i], again, entries[i])
		}
	}
	return alone - written
}

// soloPriced is a message the ledger prices as it did before a frame said its
// tuple once: in full, on every leg it rides (sizeSolo).
type soloPriced struct{ chord.Message }

// sizeSolo is the overlay's sizing function for a ring that also carries
// soloPriced messages.
func sizeSolo(msg, prev chord.Message) (int, int) {
	if m, ok := msg.(soloPriced); ok {
		return MessageSize(m.Message), 0
	}
	return sizeAfter(msg, prev)
}

// The gain, pinned where tier-1 sees it. On a 2048-node ring the index
// batches of seeded 4-attribute publications — one tuple to eight identifiers
// — cost at most 0.40 of what the rule "every message its full size on every
// leg it rides" charges the same walks (0.32 measured), the oracle being
// that very rule run over the same batches, with not a hop's difference. A
// batch of eight different tuples has nothing to share and costs exactly what
// it did.
func TestIndexWalkCarriesItsTupleOnce(t *testing.T) {
	pubs := 2000
	if testing.Short() {
		pubs = 400
	}
	net := chord.New(chord.Config{})
	net.SetSizer(sizeSolo)
	nodes := net.AddNodes("peer", 2048)
	schema := relation.MustSchema("R0", "Id", "A", "B", "C") // the benchmark's shape: ~30 bytes a tuple
	if _, err := relation.NewCatalog(schema); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	draw := func(pubT int64) *relation.Tuple {
		return relation.MustTuple(schema,
			relation.N(float64(rng.Intn(100000))), relation.S(fmt.Sprintf("k%05d", rng.Intn(5000))),
			relation.S(fmt.Sprintf("k%05d", rng.Intn(5000))), relation.S(fmt.Sprintf("c%d", rng.Intn(3000)))).WithPubT(pubT)
	}
	// indexTuple's batch as Section 4.2 has it (Config.BlindIndexing): al-index
	// and vl-index per attribute, the walk with the most to share.
	batchOf := func(tuples ...*relation.Tuple) (batch []chord.Deliverable) {
		for i := 0; i < schema.Arity(); i++ {
			tu, other := tuples[(2*i)%len(tuples)], tuples[(2*i+1)%len(tuples)]
			a := schema.Attr(i)
			batch = append(batch,
				chord.Deliverable{Target: id.Hash(alInput(schema.Name(), a, 0)), Msg: &alIndexMsg{vlIndexMsg: vlIndexMsg{T: tu, Attr: a}}},
				chord.Deliverable{Target: id.Hash(vlInput(schema.Name(), a, other.ValueAt(i))), Msg: &vlIndexMsg{T: other, Attr: a}})
		}
		return batch
	}
	// charge sends batch from origin twice — as it is, and priced solo — and
	// returns the bytes each was charged.
	charge := func(origin *chord.Node, batch []chord.Deliverable) (shared, solo int64) {
		t.Helper()
		before := net.Traffic().TotalBytes()
		_, hops, err := origin.Multisend(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		shared = net.Traffic().TotalBytes() - before
		priced := make([]chord.Deliverable, len(batch))
		for i, d := range batch {
			priced[i] = chord.Deliverable{Target: d.Target, Msg: soloPriced{d.Msg}}
		}
		_, soloHops, err := origin.Multisend(priced, nil)
		if err != nil || soloHops != hops {
			t.Fatalf("the same batch made %d hops, then %d (%v)", hops, soloHops, err)
		}
		return shared, net.Traffic().TotalBytes() - before - shared
	}
	var shared, solo int64
	for p := 0; p < pubs; p++ {
		s, o := charge(nodes[rng.Intn(len(nodes))], batchOf(draw(int64(p+1))))
		shared, solo = shared+s, solo+o
	}
	if ratio := float64(shared) / float64(solo); ratio > 0.40 || ratio < 0.25 {
		t.Errorf("the index walks of %d publications were charged %d bytes, %.3f of the %d every message alone costs; want at most 0.40 and no less than 0.25 (0.32 measured)", pubs, shared, ratio, solo)
	}
	for p := 0; p < 50; p++ {
		var eight []*relation.Tuple
		for i := 0; i < 8; i++ {
			eight = append(eight, draw(int64(pubs+8*p+i+1)))
		}
		if s, o := charge(nodes[rng.Intn(len(nodes))], batchOf(eight...)); s != o {
			t.Fatalf("a batch of eight different tuples was charged %d bytes, %d with every message alone", s, o)
		}
	}
}

// A message that leaves its tuple to the entry before it never resolves to
// another tuple: with no predecessor (first in a frame, alone in a WAL record
// or a snapshot, behind an entry that did not decode — all a nil prev), or
// behind one that carries no tuple, it is a decode error, through DecodeMessage
// and through a long-lived codec alike; behind a predecessor with a different
// tuple it decodes to that one's only because that is what a sender would have
// meant, and no honest sender writes it.
func TestRepeatedTupleNeedsItsPredecessor(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	codec := NewWireCodec(catalog)
	al, join := msgs[1].(*alIndexMsg), msgs[3]
	behind := &vlIndexMsg{T: al.T, Attr: "B"}
	var w wire.Buffer
	if err := codec.EncodeAfter(&w, behind, al); err != nil {
		t.Fatal(err)
	}
	if w.Len() >= encodedLen(behind) || w.Bytes()[1] != 0 {
		t.Fatalf("%x: the message behind one with its tuple does not leave it out", w.Bytes())
	}
	got, err := codec.DecodeAfter(wire.NewReader(w.Bytes()), al)
	if err != nil || got.(*vlIndexMsg).T != al.T {
		t.Fatalf("behind its predecessor: %+v, %v; want the predecessor's own tuple", got, err)
	}
	if _, err := DecodeMessage(wire.NewReader(w.Bytes()), catalog); err == nil {
		t.Error("decoded with no predecessor (DecodeMessage: a WAL record, a snapshot)")
	}
	for _, prev := range []chord.Message{nil, join, msgs[0], msgs[6]} {
		if got, err := codec.DecodeAfter(wire.NewReader(w.Bytes()), prev); err == nil {
			t.Errorf("decoded behind %T to %+v", prev, got)
		}
	}
	// A rewrite's trigger travels with its query's projection for a shape: it
	// is never left out, and an empty relation name there is an error even
	// behind a tuple-carrying message.
	rw := join.(*joinMsg).Rewrites[0]
	forged := orphanMarkers(t, rw.Orig, &rewriteTarget{IndexSide: query.SideLeft, Trigger: rw.Trigger, Want: &relation.AttrRef{Rel: "S", Attr: "E"}, WantValue: relation.N(7)})["whole"]
	at := bytes.Index(forged, []byte("\x01R\x00")) // the trigger: relation "R", then arity 0
	if at < 0 {
		t.Fatal("the hand-written join holds no nameless R tuple")
	}
	forged = append(append(append([]byte(nil), forged[:at]...), 0), forged[at+2:]...)
	if got, err := codec.DecodeAfter(wire.NewReader(forged), al); err == nil {
		t.Errorf("a shaped tuple with an empty relation name decoded behind %T to %+v", al, got)
	}
}

// A purge, retraction or interest mark that leaves its query key to the entry
// before it has none to lean on first in a frame, alone, or behind a join or a
// tuple's message: each is a decode error. So is an input said to share more
// bytes with the predecessor's than that input has; all of it is the most.
func TestRepeatedKeyNeedsItsPredecessor(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	codec := NewWireCodec(catalog)
	purge := msgs[9].(*purgeMsg)
	behind := &purgeMsg{QueryKey: purge.QueryKey, Input: "S+E+9"}
	var w wire.Buffer
	if err := codec.EncodeAfter(&w, behind, purge); err != nil {
		t.Fatal(err)
	}
	if got, err := codec.DecodeAfter(wire.NewReader(w.Bytes()), purge); err != nil || *got.(*purgeMsg) != *behind || w.Bytes()[1] != 0 {
		t.Fatalf("%x behind its predecessor: %+v, %v", w.Bytes(), got, err)
	}
	if _, err := DecodeMessage(wire.NewReader(w.Bytes()), catalog); err == nil {
		t.Error("decoded with no predecessor (DecodeMessage: a WAL record, a snapshot)")
	}
	for _, prev := range []chord.Message{nil, msgs[3], msgs[1]} {
		if got, err := codec.DecodeAfter(wire.NewReader(w.Bytes()), prev); err == nil {
			t.Errorf("decoded behind %T to %+v", prev, got)
		}
	}
	whole := []byte{tagPurge, 0, byte(len(purge.Input)), 0}
	if got, err := codec.DecodeAfter(wire.NewReader(whole), purge); err != nil || *got.(*purgeMsg) != *purge {
		t.Fatalf("the predecessor's whole input: %+v, %v", got, err)
	}
	past := []byte{tagPurge, 0, byte(len(purge.Input) + 1), 0}
	if got, err := codec.DecodeAfter(wire.NewReader(past), purge); err == nil {
		t.Errorf("a prefix past the predecessor's input decoded to %+v", got)
	}
}

// retractionWalk subscribes a query on a ring of 2048 nodes, publishes 48
// tuples with distinct join values — strings of the benchmark's shape — so
// that its rewrites sit at 48 evaluators, and unsubscribes it. It returns the
// rewriter's purge walk, clockwise as Multisend rode it, and the rewriter.
func retractionWalk(t *testing.T) (*testEnv, *chord.Node, []chord.Message) {
	t.Helper()
	const keys = 48
	env := newTestEnv(t, 2048, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 34})
	q := env.subscribe(t, 570, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	for i := 0; i < keys; i++ {
		env.publish(t, 1+i, relation.MustTuple(env.r, relation.N(float64(i)), relation.S(fmt.Sprintf("k%d", 100+37*i)), relation.N(0)))
	}
	var rewriter *chord.Node
	var purges []chord.Message
	env.net.SetInterceptor(interceptFunc(func(from, dst *chord.Node, msg chord.Message, forward func() bool) int {
		if _, ok := msg.(*purgeMsg); ok {
			rewriter, purges = from, append(purges, msg)
		}
		if forward() {
			return 1
		}
		return 0
	}))
	if err := env.eng.Unsubscribe(env.node(570), q); err != nil {
		t.Fatal(err)
	}
	env.net.SetInterceptor(nil)
	if len(purges) != keys {
		t.Fatalf("the retraction sent %d purges, want one to each of %d evaluators", len(purges), keys)
	}
	return env, rewriter, purges
}

// The gain, pinned where tier-1 sees it. A query retracted after its rewrites
// reached 48 evaluators — about what one retraction purges on `sim-subchurn` —
// sends a purge walk that names it to each, charged at most 0.40 of what the
// same walk costs with every purge priced alone, in full on every leg it rides
// (0.378 measured; a purge behind another is 7 bytes of 20), with not a hop's
// difference.
func TestPurgeWalkSaysItsQueryOnce(t *testing.T) {
	env, rewriter, purges := retractionWalk(t)
	env.net.SetTransport(&walkRecorder{}) // the walks again, no handler running
	env.net.SetSizer(sizeSolo)
	var batch, solo []chord.Deliverable
	for _, m := range purges {
		target := id.Hash(m.(*purgeMsg).Input)
		batch = append(batch, chord.Deliverable{Target: target, Msg: m})
		solo = append(solo, chord.Deliverable{Target: target, Msg: soloPriced{m}})
	}
	charge := func(b []chord.Deliverable) (int64, int) {
		t.Helper()
		before := env.net.Traffic().Bytes(kindUnsub)
		_, hops, err := rewriter.Multisend(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		return env.net.Traffic().Bytes(kindUnsub) - before, hops
	}
	shared, hops := charge(batch)
	alone, soloHops := charge(solo)
	if ratio := float64(shared) / float64(alone); ratio > 0.40 || hops != soloHops {
		t.Errorf("the purge walk was charged %d bytes over %d hops, %.3f of the %d bytes over %d hops every purge alone costs; want at most 0.40", shared, hops, ratio, alone, soloHops)
	}
}
