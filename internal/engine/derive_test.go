package engine

import (
	"fmt"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// joinTap is a chord.Transport that hands every message over as the simulator
// does and keeps the rewrite-carrying ones: what the rewriters built.
type joinTap struct{ msgs []chord.Message }

func (tp *joinTap) Deliver(from, dst *chord.Node, msg chord.Message) bool {
	switch msg.(type) {
	case *joinMsg:
		tp.msgs = append(tp.msgs, msg)
	}
	if !dst.Alive() {
		return false
	}
	dst.Handler().HandleMessage(dst, msg)
	return true
}

func (tp *joinTap) DeliverBatch(from, dst *chord.Node, msgs []chord.Message) []bool {
	acks := make([]bool, len(msgs))
	for i, msg := range msgs {
		acks[i] = tp.Deliver(from, dst, msg)
	}
	return acks
}

// rewritesOf returns the rewrites a tapped message carries, and where its
// first rewrite starts in the message's encoding.
func rewritesOf(t *testing.T, msg chord.Message) ([]rewritten, int) {
	t.Helper()
	m, ok := msg.(*joinMsg)
	if !ok {
		t.Fatalf("a %T carries no rewrites", msg)
	}
	return m.Rewrites, 1 + wire.SizeUvarint(uint64(len(m.Rewrites)))
}

// firstSide reads the key and the side of the rewrite that leads msg's
// encoding.
func firstSide(t *testing.T, msg chord.Message) (key string, side query.Side) {
	t.Helper()
	rws, at := rewritesOf(t, msg)
	var w wire.Buffer
	if err := EncodeMessage(&w, msg); err != nil {
		t.Fatal(err)
	}
	key, err := wire.NewReader(w.Bytes()[at:]).String()
	if err != nil {
		t.Fatal(err)
	}
	at += wire.SizeString(key) + querySize(rws[0].Orig, "")
	return key, query.Side(w.Bytes()[at])
}

// roundTrips decodes msg's encoding and holds every rewrite to the one sent —
// a Key(q') sent held derived is decoded held derived — and the decoded
// message to the sent one's bytes.
func roundTrips(t *testing.T, catalog *relation.Catalog, msg chord.Message) {
	t.Helper()
	var w wire.Buffer
	if err := EncodeMessage(&w, msg); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMessage(wire.NewReader(w.Bytes()), catalog)
	if err != nil {
		t.Fatalf("%T: %v\n%x", msg, err, w.Bytes())
	}
	sent, _ := rewritesOf(t, msg)
	got, _ := rewritesOf(t, back)
	for i := range sent {
		assertRewrittenEqual(t, &sent[i], &got[i])
		if sent[i].spelledKey() == "" && got[i].spelledKey() != "" {
			t.Fatalf("%T: a derived key decoded spelled, %q", msg, got[i].spelledKey())
		}
	}
	if again := encodedLen(back); again != w.Len() || MessageSize(msg) != w.Len() {
		t.Fatalf("%T: %d bytes sized, %d sent, %d decoded and sent again", msg, MessageSize(msg), w.Len(), again)
	}
}

// Every target a rewriter builds is one its evaluator derives (Sections
// 4.3.2-4.3.3): whatever the join condition's arithmetic, the values' type,
// the SELECT list, the selections and the index side, the rewrite that leads
// each target travels with a derived side and an empty key, under SAI and
// DAI-T alike, and decodes to the rewrite sent. Every stored Key(q') is held
// derived, so the census counts no spelled key.
func TestRewritersBuildDerivableTargets(t *testing.T) {
	type pair struct{ left, right []relation.Value }
	n, s := relation.N, relation.S
	plain := pair{[]relation.Value{n(1), n(7), n(2)}, []relation.Value{n(3), n(7), n(1)}}
	for _, tc := range []struct {
		name, sql string
		pair      pair
	}{
		{"R.B = S.E", `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`, plain},
		{"R.B = S.E * 2 + 1", `SELECT R.A, S.D FROM R, S WHERE R.B = S.E * 2 + 1`,
			pair{[]relation.Value{n(1), n(7), n(2)}, []relation.Value{n(3), n(3), n(1)}}},
		{"strings", `SELECT Document.Title, Authors.Surname FROM Document, Authors WHERE Document.AuthorId = Authors.Id`,
			pair{[]relation.Value{s("d1"), s("Joins"), s("VLDB"), s("a7")}, []relation.Value{s("a7"), s("Ada"), s("Lovelace")}}},
		{"both sides selected", `SELECT R.A, R.C, S.D, S.F FROM R, S WHERE R.B = S.E`, plain},
		{"selections", `SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND R.C >= 1 AND S.F < 5`, plain},
	} {
		for _, alg := range []Algorithm{SAI, DAIT} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, alg), func(t *testing.T) {
				env := newTestEnv(t, 32, Config{Algorithm: alg, Strategy: StrategyRandom, Seed: 3})
				var qs []*query.Query
				for i := 0; i < 8; i++ { // StrategyRandom: queries on both index sides
					qs = append(qs, env.subscribe(t, i, tc.sql))
				}
				tap := &joinTap{}
				env.net.SetTransport(tap)
				left, right := qs[0].Rel(query.SideLeft), qs[0].Rel(query.SideRight)
				env.publish(t, 9, relation.MustTuple(left, tc.pair.left...))
				env.publish(t, 10, relation.MustTuple(right, tc.pair.right...))
				if env.eng.NotificationCount() != len(qs) {
					t.Fatalf("%d notifications for %d queries of one matching pair", env.eng.NotificationCount(), len(qs))
				}
				sides := map[query.Side]int{}
				for _, msg := range tap.msgs {
					rws, _ := rewritesOf(t, msg)
					for i := range rws {
						rw := &rws[i]
						if i > 0 && rw.repeats(&rws[i-1]) {
							continue
						}
						sides[rw.IndexSide]++
						if key, side := firstSide(t, &joinMsg{Rewrites: rws[i : i+1]}); key != "" || side != rw.IndexSide+sideDerived {
							t.Errorf("the rewrite leading target %v travels with key %q and side %d, want \"\" and %d",
								rw.rewriteTarget, key, side, rw.IndexSide+sideDerived)
						}
					}
					roundTrips(t, env.catalog, msg)
				}
				if sides[query.SideLeft] == 0 || sides[query.SideRight] == 0 {
					t.Fatalf("targets by index side: %v; the case exercises one side only", sides)
				}
				if c := env.eng.Census(); c["vlqt_rewrites"].Sum == 0 || c["vlqt_spelled_keys"].Sum != 0 {
					t.Fatalf("%d stored rewrites, %d of them with a spelled key, want none", c["vlqt_rewrites"].Sum, c["vlqt_spelled_keys"].Sum)
				}
			})
		}
	}
}

// The saving, pinned: three subscribers' rewrites of one trigger, shaped as
// the benchmark's are — a 2048-node ring's subscriber names, Id values in the
// hundred thousands — say their query keys, the query's token form and the
// trigger, and neither the wants, Key(q') nor the subscribers: 124 bytes, 156
// while they said the SQL text, 208 while they said all of it.
func TestBenchShapedJoinSize(t *testing.T) {
	r := relation.MustSchema("R3", "Id", "A", "B", "C")
	s := relation.MustSchema("S3", "Id", "A", "B", "C")
	catalog := relation.MustCatalog(r, s)
	net := chord.New(chord.Config{})
	nodes := net.AddNodes("peer", 2048)
	eng := New(net, catalog, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 1})
	for _, i := range []int{411, 1093, 1775} {
		if _, err := eng.Subscribe(nodes[i], query.MustParse(catalog, `SELECT R3.Id, S3.Id FROM R3, S3 WHERE R3.A = S3.A`)); err != nil {
			t.Fatal(err)
		}
	}
	tap := &joinTap{}
	net.SetTransport(tap)
	if _, err := eng.Publish(nodes[7], relation.MustTuple(r, relation.N(183402), relation.N(4417), relation.N(4412), relation.N(90211))); err != nil {
		t.Fatal(err)
	}
	if len(tap.msgs) != 1 {
		t.Fatalf("%d join messages, want the group's one", len(tap.msgs))
	}
	join := tap.msgs[0].(*joinMsg)
	if len(join.Rewrites) != 3 {
		t.Fatalf("%d rewrites, want 3", len(join.Rewrites))
	}
	const ceiling = 130 // 124, and 5 %
	size := MessageSize(join)
	t.Logf("the benchmark's join of three rewrites is %d bytes (ceiling %d)", size, ceiling)
	if size > ceiling {
		t.Fatalf("the benchmark's join of three rewrites is %d bytes, ceiling %d", size, ceiling)
	}
	roundTrips(t, catalog, join)
}

// hostileSides returns the fixtures of every message that walks a side with
// that side forged to 7, a value no side field holds: a query, a DAI-V join,
// a hand-off's ALQT group and a rewrite.
func hostileSides(tb testing.TB, msgs []chord.Message) map[string][]byte {
	tb.Helper()
	forge := func(msg chord.Message, at int, side query.Side) []byte {
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			tb.Fatal(err)
		}
		if b := w.Bytes(); b[at] != byte(side) {
			tb.Fatalf("%T: byte %d is %d, not its side %d", msg, at, b[at], side)
		}
		w.Bytes()[at] = 7
		return w.Bytes()
	}
	qm, jv, ho := msgs[0].(queryMsg), msgs[4].(joinVMsg), msgs[10].(handoffMsg)
	rw := msgs[3].(*joinMsg).Rewrites[0]
	group := ho.AL[0].Groups[0]
	return map[string][]byte{
		"query":      forge(qm, MessageSize(qm)-wire.SizeUvarint(uint64(qm.Replica))-1, qm.Side),
		"DAI-V join": forge(jv, 1+wire.SizeString(jv.Input)+wire.SizeString(jv.Cond), jv.Side),
		"ALQT group": forge(ho, 2+wire.SizeString(ho.AL[0].Input)+1+wire.SizeString(group.Cond), group.Side),
		"rewrite":    forge(msgs[3], 2+wire.SizeString(rw.spelledKey())+querySize(rw.Orig, ""), rw.IndexSide+sideDerived),
	}
}

// A side walk fails on a value its field cannot hold. Stored, a query's side 5
// crashed the next tuple its rewriter's bucket saw.
func TestHostileSideFailsToDecode(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	for what, data := range hostileSides(t, msgs) {
		if got, err := DecodeMessage(wire.NewReader(data), catalog); err == nil {
			t.Errorf("a %s with side 7 decoded to %+v", what, got)
		}
	}
}

// hostileScalars returns messages whose int or bool field says what the field
// cannot hold: a hot-join's shard of 2^63, which read as an int is negative,
// and a snapshot's Multi and Marks flags of 2.
func hostileScalars(tb testing.TB) map[string][]byte {
	tb.Helper()
	var scatter wire.Buffer
	scatter.PutUvarint(uint64(tagHotJoin))
	scatter.PutString("S+E+7")
	scatter.PutUvarint(1 << 63) // Shard
	scatter.PutUvarint(0)       // no rewrites
	flag := func(m snapMetaMsg, at int) []byte {
		var w wire.Buffer
		if err := EncodeMessage(&w, m); err != nil {
			tb.Fatal(err)
		}
		if at < 0 {
			at += w.Len()
		}
		if b := w.Bytes(); b[at] > 1 {
			tb.Fatalf("byte %d of %x is no flag", at, b)
		}
		w.Bytes()[at] = 2
		return w.Bytes()
	}
	return map[string][]byte{
		"shard of 2^63": scatter.Bytes(),
		"Multi of 2":    flag(snapMetaMsg{Clock: 1}, 6), // tag, clock, four empty lists, Multi
		"Marks of 2":    flag(snapMetaMsg{Clock: 1, Count: 1, Marks: true}, -1),
	}
}

// An int or bool walk fails on a value its field cannot hold, as a side walk
// does.
func TestHostileScalarFailsToDecode(t *testing.T) {
	catalog, _ := codecFixtures(t)
	for what, data := range hostileScalars(t) {
		if got, err := DecodeMessage(wire.NewReader(data), catalog); err == nil {
			t.Errorf("a %s decoded to %+v", what, got)
		}
	}
}

// A derived side says the receiver derives the wants from the query and the
// trigger. Where it cannot — a side of two attributes, a string where the
// other side computes — the rewrite fails to decode rather than ask for
// nothing; the same bytes with a trigger it can solve decode to the wants.
func TestUnderivableTargetFailsToDecode(t *testing.T) {
	env := newTestEnv(t, 16, Config{Algorithm: SAI})
	join := func(sql string, trigger *relation.Tuple) []byte {
		t.Helper()
		q := query.MustParse(env.catalog, sql).WithIdentity("peer5", "sim://x", 1)
		proj, err := trigger.ProjectOnto(q.Projection(query.SideLeft))
		if err != nil {
			t.Fatal(err)
		}
		var w wire.Buffer
		w.PutUvarint(uint64(tagJoin))
		w.PutUvarint(1)
		w.PutString(q.Key() + "+9") // a key of its own: only the target is left to derive
		putQuery(&w, q, "")
		w.PutUvarint(uint64(query.SideLeft + sideDerived))
		putTuple(&w, proj, q.Projection(query.SideLeft))
		return w.Bytes()
	}
	const arith = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E * 2 + 1`
	got, err := DecodeMessage(wire.NewReader(join(arith, rTuple(env, 1, 7, 2))), env.catalog)
	if err != nil {
		t.Fatalf("a derivable target: %v", err)
	}
	if rw := got.(*joinMsg).Rewrites[0]; *rw.Want != (relation.AttrRef{Rel: "S", Attr: "E"}) || !rw.WantValue.Equal(relation.N(3)) || rw.key() != "peer5#1+9" {
		t.Fatalf("derived %v = %v under key %q, want S.E = 3 under peer5#1+9", rw.Want, rw.WantValue, rw.key())
	}
	for what, data := range map[string][]byte{
		"two attributes": join(`SELECT R.A, S.D FROM R, S WHERE R.B = S.E + S.F`, rTuple(env, 1, 7, 2)),
		"a string into arithmetic": join(arith,
			relation.MustTuple(env.r, relation.N(1), relation.S("x"), relation.N(2))),
	} {
		if got, err := DecodeMessage(wire.NewReader(data), env.catalog); err == nil {
			t.Errorf("%s: a derived side decoded to %+v", what, got.(*joinMsg).Rewrites[0].rewriteTarget)
		}
	}
}
