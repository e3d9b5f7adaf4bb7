package engine

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/obs"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// codecFixtures builds one instance of every engine message.
func codecFixtures(t testing.TB, extra ...*relation.Schema) (*relation.Catalog, []chord.Message) {
	t.Helper()
	env := newTestEnv(t, 16, Config{Algorithm: SAI})
	mcat := relation.MustCatalog(
		relation.MustSchema("A", "x", "y"),
		relation.MustSchema("B", "x", "y"),
		relation.MustSchema("C", "x", "y"),
	)
	// Merge both catalogs, and extra, so one decoder handles everything. The
	// query is parsed against the merged one: its token form names ordinals
	// of the catalog it decodes with.
	full := relation.MustCatalog(append(append(env.catalog.Schemas(), mcat.Schemas()...), extra...)...)
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND S.F >= 1`)
	q = query.MustParse(full, q.Text()).WithInsT(q.InsT()).WithRestoredIdentity(q.Key(), q.Subscriber(), q.SubscriberIP())
	tu := rTuple(env, 1, 7, 2).WithPubT(9)
	su := sTuple(env, 3, 7, 1).WithPubT(11)
	proj, err := tu.Project(q.NeededAttrs("R"))
	if err != nil {
		t.Fatal(err)
	}
	rw := spelled("n#1+1+7", q, &rewriteTarget{
		IndexSide: query.SideLeft, Trigger: proj,
		Want: &relation.AttrRef{Rel: "S", Attr: "E"}, WantValue: relation.N(7),
	})
	notif, err := buildNotification(q, query.SideLeft, proj, su)
	if err != nil {
		t.Fatal(err)
	}

	// A chain of three, walked from A: a partial match of A's tuple waits at
	// B.y = 1, and one of A's and B's at C.y = 3.
	mq := query.MustParse(full, `SELECT A.y, C.y FROM A, B, C WHERE A.x = B.y AND B.x = C.y`).
		WithIdentity("peer3", "sim://x", 2).WithInsT(5)
	ta := relation.MustTuple(full.Lookup("A"), relation.N(1), relation.N(10)).WithPubT(6)
	tb := relation.MustTuple(full.Lookup("B"), relation.N(3), relation.N(1)).WithPubT(7)
	mrw := &rewritten{Orig: mq, rewriteTarget: &rewriteTarget{
		IndexSide: query.SideLeft, Trigger: ta,
		Want: &relation.AttrRef{Rel: "B", Attr: "y"}, WantValue: relation.N(1),
	}}
	mrw2 := &rewritten{Orig: mq, rewriteTarget: &rewriteTarget{
		IndexSide: query.SideLeft, Trigger: tb, Extra: &targetExtra{Prefix: []*relation.Tuple{ta}},
		Want: &relation.AttrRef{Rel: "C", Attr: "y"}, WantValue: relation.N(3),
	}}

	msgs := []chord.Message{
		queryMsg{Q: q, Side: query.SideRight, Attr: "E", Replica: 2},
		&alIndexMsg{vlIndexMsg: vlIndexMsg{T: tu, Attr: "B"}, Replica: 1},
		&vlIndexMsg{T: su, Attr: "E"},
		&joinMsg{Rewrites: []rewritten{*rw, *rw}},
		joinVMsg{Input: "7", Cond: q.ConditionKey(), Side: query.SideLeft, Value: relation.N(7), Trigger: tu, Queries: []*query.Query{q}},
		joinBatch{Msgs: []chord.Message{&vlIndexMsg{T: su, Attr: "E"}, &joinMsg{Rewrites: []rewritten{*rw}}}},
		&notifyMsg{Subscriber: q.Subscriber(), Batch: []Notification{notif, notif}},
		probeMsg{AttrInput: "R+B"},
		&unsubMsg{QueryKey: q.Key(), Cond: q.ConditionKey(), Input: "R+B"},
		&purgeMsg{QueryKey: q.Key(), Input: "S+E+7"},
		// Lines 11 to 13 held the naive baselines' query, tuple and probe,
		// and lines 14 and 15 a chain's query and join: retired tags.
		// A node's state: a chain's group, once a section of its own, and
		// its partial match at B.y = 1, which went on to C.y = 3.
		handoffMsg{
			AL: []alSection{{
				Input: "R+B",
				Groups: []alGroupSection{
					{Cond: q.ConditionKey(), Side: query.SideLeft, Queries: []*query.Query{q}},
					{Cond: mq.ConditionKey(), Side: query.SideRight, Queries: []*query.Query{mq}},
				},
				SentRewrites: []string{rw.key()},
				SentTargets:  []targetsEntry{{Key: rw.key(), Targets: []string{"S+E+7", "S+E+9"}}},
			}},
			VQ: []vqSection{
				{ID: id.Hash("B+y+1"), Entries: []vqEntry{{Rw: mrw, Times: []int64{6}}},
					SentTargets: []targetsEntry{{Key: "peer3#2+6", Targets: []string{"C+y+3"}}}},
				{ID: id.Hash("S+E+7"), Entries: []vqEntry{{Rw: rw, Times: []int64{9, 11}}}},
			},
			VT:     []vtSection{{ID: id.Hash("S+E+7"), Tuples: []*relation.Tuple{su}}},
			DV:     []dvSection{{Input: "7", Entries: []dvEntry{{Cond: q.ConditionKey(), Left: []*relation.Tuple{tu}, Right: []*relation.Tuple{su}}}}},
			Notifs: []notifSection{{Subscriber: q.Subscriber(), Batch: []Notification{notif}}},
		},
		// Lines 17 and 18 held the hot-key frames while they said their
		// promotion's epoch, lines 19 and 21 a promotion's migrate and
		// hand-off, and line 20 a hot-recall: retired tags.
		snapMetaMsg{
			Clock: 12, Nodes: []string{"peer0", "peer1"}, Down: []string{"peer9"},
			Seq:   []seqEntry{{Key: q.Subscriber(), Seq: 2}},
			Subs:  []subsEntry{{Key: q.Key(), Inputs: []string{"R+B", "S+E"}}},
			Multi: true, Conds: []*query.Query{q}, Sink: []Notification{notif},
			HotEpochs: []hotEpochEntry{{Input: "S+E+7", Version: 3, K: 4}},
			HotCounts: []hotCountEntry{{Input: "S+E+7", Count: 5, WindowStart: 8}},
			Count:     1, // what a frame that ends after HotCounts decodes to
		},
		// A consumer's engine: identities in place of the notifications.
		snapMetaMsg{Clock: 12, Nodes: []string{"peer0"}, Delivered: []string{deliveryKey(notif)}, Count: 3},
		// Demand-driven indexing: the mark a subscribe leaves, a node's state
		// with its marks and retraction memory behind the sections PR 25
		// ended on, and the meta of a snapshot whose sections hold them.
		interestMsg{QueryKey: q.Key(), Input: "S+E"},
		handoffMsg{
			AL: []alSection{
				{Input: "R+B", Groups: []alGroupSection{{Cond: q.ConditionKey(), Side: query.SideLeft, Queries: []*query.Query{q}}},
					SentRewrites: []string{}, SentTargets: []targetsEntry{}},
				{Input: "S+E", SentRewrites: []string{}, SentTargets: []targetsEntry{}, Interest: []string{q.Key(), "peer3#2"}},
			},
			Retracted: []string{"peer3#1"},
		},
		snapMetaMsg{Clock: 12, Nodes: []string{"peer0"}, Marks: true},
		// A publisher told no query reads an attribute: the ask, a node's state
		// with the grants behind all PR 32 wrote, and the revocation.
		&alAskMsg{alIndexMsg: &alIndexMsg{vlIndexMsg: vlIndexMsg{T: tu, Attr: "C"}, Replica: 1}, asker: "peer5"},
		handoffMsg{
			AL: []alSection{{Input: "R+C", SentRewrites: []string{}, SentTargets: []targetsEntry{}, Grants: []string{"peer5", "peer7"}}},
		},
		revokeMsg{Input: "R+C"},
		// A retraction walk names one query again and again: a second
		// retraction, purge and interest mark of it, at other inputs.
		&unsubMsg{QueryKey: q.Key(), Cond: q.ConditionKey(), Input: "R+C"},
		&purgeMsg{QueryKey: q.Key(), Input: "S+E+9"},
		interestMsg{QueryKey: q.Key(), Input: "S+F"},
		// A chain indexed at its C end, and its partial match of A's and B's
		// tuples on its way to C.y = 3.
		queryMsg{Q: mq, Side: query.SideRight, Attr: "y", Replica: 0},
		&joinMsg{Rewrites: []rewritten{*mrw2}},
		// The hot-key frames, which name their shard and nothing of the
		// promotion, and a node's state with the detector's sections behind
		// its VQ targets: a promoted input and one only counted.
		hotJoinMsg{Input: "S+E+7", Shard: 2, Rewrites: []rewritten{*rw, *rw}},
		hotVLIndexMsg{Input: "S+E+7", Shard: 1, T: su},
		handoffMsg{
			VQ: []vqSection{{ID: id.Hash("S+E+7"), Entries: []vqEntry{{Rw: rw, Times: []int64{9}}}}},
			Hot: []hotSection{
				{Input: "S+E+7", Count: 9, WindowStart: 64, Promoted: true},
				{Input: "S+E+9", Count: 2, WindowStart: 70},
			},
		},
		// The meta of a snapshot that says its standing queries behind Marks.
		snapMetaMsg{
			Clock: 12, Nodes: []string{"peer0"}, Subs: []subsEntry{{Key: q.Key(), Inputs: []string{"R+B", "S+E"}}},
			Marks: true, Standing: []*query.Query{q},
		},
		// The meta of a snapshot that says its process's retraction memory
		// behind its standing queries, here none.
		snapMetaMsg{Clock: 12, Nodes: []string{"peer0"}, Marks: true, Retracted: []string{"peer3#1", "peer5#2"}},
		// A consumer's engine restored from a parent's snapshot: the text
		// identity the parent listed, and its own typed identities behind the
		// retraction memory, here none.
		snapMetaMsg{Clock: 12, Nodes: []string{"peer0"}, Delivered: []string{"peer3#1|2|5|8"}, Count: 2, Identities: []string{spelledIdentity(notif)}},
	}
	return full, msgs
}

func TestCodecRoundTripAllMessages(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	for _, msg := range msgs {
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		r := wire.NewReader(w.Bytes())
		got, err := DecodeMessage(r, catalog)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("%T: %d bytes left after decode", msg, r.Remaining())
		}
		if reflect.TypeOf(got) != reflect.TypeOf(msg) {
			t.Fatalf("decoded %T, want %T", got, msg)
		}
		assertSemanticEqual(t, msg, got)
	}
}

// assertSemanticEqual compares the fields the receiving handlers consume.
func assertSemanticEqual(t *testing.T, want, got chord.Message) {
	t.Helper()
	switch w := want.(type) {
	case queryMsg:
		g := got.(queryMsg)
		if g.Q.Key() != w.Q.Key() || g.Q.ConditionKey() != w.Q.ConditionKey() ||
			g.Q.InsT() != w.Q.InsT() || g.Attr != w.Attr || g.Side != w.Side || g.Replica != w.Replica {
			t.Fatalf("queryMsg mismatch: %+v", g)
		}
		if len(g.Q.Filters()) != len(w.Q.Filters()) {
			t.Fatal("queryMsg lost filters")
		}
	case *alIndexMsg:
		g := got.(*alIndexMsg)
		if g.T.String() != w.T.String() || g.T.PubT() != w.T.PubT() || g.Attr != w.Attr || g.Replica != w.Replica {
			t.Fatalf("alIndexMsg mismatch: %+v", g)
		}
	case *alAskMsg:
		g := got.(*alAskMsg)
		assertSemanticEqual(t, w.alIndexMsg, g.alIndexMsg)
		if g.asker != w.asker {
			t.Fatalf("alAskMsg asked by %q, want %q", g.asker, w.asker)
		}
	case *vlIndexMsg:
		g := got.(*vlIndexMsg)
		if g.T.String() != w.T.String() || g.Attr != w.Attr {
			t.Fatalf("vlIndexMsg mismatch: %+v", g)
		}
	case *joinMsg:
		g := got.(*joinMsg)
		if len(g.Rewrites) != len(w.Rewrites) {
			t.Fatal("joinMsg lost rewrites")
		}
		for i := range g.Rewrites {
			assertRewrittenEqual(t, &w.Rewrites[i], &g.Rewrites[i])
		}
	case joinVMsg:
		g := got.(joinVMsg)
		if g.Input != w.Input || g.Cond != w.Cond || g.Side != w.Side ||
			!g.Value.Equal(w.Value) || g.Trigger.String() != w.Trigger.String() ||
			len(g.Queries) != len(w.Queries) || g.Queries[0].Key() != w.Queries[0].Key() {
			t.Fatalf("joinVMsg mismatch: %+v", g)
		}
	case joinBatch:
		g := got.(joinBatch)
		if len(g.Msgs) != len(w.Msgs) {
			t.Fatal("joinBatch lost messages")
		}
		for i := range g.Msgs {
			assertSemanticEqual(t, w.Msgs[i], g.Msgs[i])
		}
	case *notifyMsg:
		g := got.(*notifyMsg)
		if g.Subscriber != w.Subscriber || len(g.Batch) != len(w.Batch) {
			t.Fatalf("notifyMsg mismatch: %+v", g)
		}
		for i := range g.Batch {
			if g.Batch[i].ContentKey() != w.Batch[i].ContentKey() ||
				g.Batch[i].LeftPubT != w.Batch[i].LeftPubT ||
				g.Batch[i].RightPubT != w.Batch[i].RightPubT ||
				g.Batch[i].Subscriber != w.Batch[i].Subscriber {
				t.Fatalf("notification %d mismatch", i)
			}
		}
	case probeMsg:
		if got.(probeMsg) != w {
			t.Fatal("probeMsg mismatch")
		}
	case *unsubMsg:
		if *got.(*unsubMsg) != *w {
			t.Fatal("unsubMsg mismatch")
		}
	case *purgeMsg:
		if *got.(*purgeMsg) != *w {
			t.Fatal("purgeMsg mismatch")
		}
	case interestMsg:
		if got.(interestMsg) != w {
			t.Fatal("interestMsg mismatch")
		}
	case revokeMsg:
		if got.(revokeMsg) != w {
			t.Fatal("revokeMsg mismatch")
		}
	case handoffMsg:
		g := got.(handoffMsg)
		if len(g.AL) != len(w.AL) || len(g.VQ) != len(w.VQ) ||
			len(g.VT) != len(w.VT) || len(g.DV) != len(w.DV) || len(g.Notifs) != len(w.Notifs) {
			t.Fatalf("handoffMsg section counts mismatch: %+v", g)
		}
		if len(g.Hot)+len(w.Hot) > 0 && !reflect.DeepEqual(g.Hot, w.Hot) {
			t.Fatalf("handoffMsg hot-key sections mismatch: %+v", g.Hot)
		}
		if !slices.Equal(g.Retracted, w.Retracted) {
			t.Fatalf("handoffMsg retraction memory mismatch: %v", g.Retracted)
		}
		for i := range g.AL {
			ga, wa := g.AL[i], w.AL[i]
			if ga.Input != wa.Input || len(ga.Groups) != len(wa.Groups) ||
				!slices.Equal(ga.Interest, wa.Interest) || !slices.Equal(ga.Grants, wa.Grants) ||
				!reflect.DeepEqual(ga.SentRewrites, wa.SentRewrites) ||
				!reflect.DeepEqual(ga.SentTargets, wa.SentTargets) {
				t.Fatalf("alSection %d mismatch: %+v", i, ga)
			}
			for j := range ga.Groups {
				gg, wg := ga.Groups[j], wa.Groups[j]
				if gg.Cond != wg.Cond || gg.Side != wg.Side ||
					len(gg.Queries) != len(wg.Queries) || gg.Queries[0].Key() != wg.Queries[0].Key() {
					t.Fatalf("alGroupSection %d/%d mismatch", i, j)
				}
			}
		}
		for i := range g.VQ {
			gv, wv := g.VQ[i], w.VQ[i]
			if gv.ID != wv.ID || len(gv.Entries) != len(wv.Entries) ||
				len(gv.SentTargets)+len(wv.SentTargets) > 0 && !reflect.DeepEqual(gv.SentTargets, wv.SentTargets) {
				t.Fatalf("vqSection %d mismatch: %+v", i, gv)
			}
			for j := range gv.Entries {
				assertRewrittenEqual(t, wv.Entries[j].Rw, gv.Entries[j].Rw)
				if !reflect.DeepEqual(gv.Entries[j].Times, wv.Entries[j].Times) {
					t.Fatalf("vqEntry %d/%d times mismatch", i, j)
				}
			}
		}
		for i := range g.VT {
			gv, wv := g.VT[i], w.VT[i]
			if gv.ID != wv.ID || len(gv.Tuples) != len(wv.Tuples) ||
				gv.Tuples[0].String() != wv.Tuples[0].String() ||
				gv.Tuples[0].PubT() != wv.Tuples[0].PubT() {
				t.Fatalf("vtSection %d mismatch: %+v", i, gv)
			}
		}
		for i := range g.DV {
			gd, wd := g.DV[i], w.DV[i]
			if gd.Input != wd.Input || len(gd.Entries) != len(wd.Entries) {
				t.Fatalf("dvSection %d mismatch: %+v", i, gd)
			}
			for j := range gd.Entries {
				ge, we := gd.Entries[j], wd.Entries[j]
				if ge.Cond != we.Cond || len(ge.Left) != len(we.Left) || len(ge.Right) != len(we.Right) ||
					ge.Left[0].String() != we.Left[0].String() ||
					ge.Right[0].String() != we.Right[0].String() {
					t.Fatalf("dvEntry %d/%d mismatch", i, j)
				}
			}
		}
		for i := range g.Notifs {
			gn, wn := g.Notifs[i], w.Notifs[i]
			if gn.Subscriber != wn.Subscriber || len(gn.Batch) != len(wn.Batch) ||
				gn.Batch[0].ContentKey() != wn.Batch[0].ContentKey() ||
				gn.Batch[0].Subscriber != wn.Batch[0].Subscriber {
				t.Fatalf("notifSection %d mismatch: %+v", i, gn)
			}
		}
	case hotJoinMsg:
		g := got.(hotJoinMsg)
		if g.Input != w.Input || g.Shard != w.Shard || len(g.Rewrites) != len(w.Rewrites) {
			t.Fatalf("hotJoinMsg mismatch: %+v", g)
		}
		for i := range g.Rewrites {
			assertRewrittenEqual(t, &w.Rewrites[i], &g.Rewrites[i])
		}
	case hotVLIndexMsg:
		g := got.(hotVLIndexMsg)
		if g.Input != w.Input || g.Shard != w.Shard || g.T.String() != w.T.String() || g.T.PubT() != w.T.PubT() {
			t.Fatalf("hotVLIndexMsg mismatch: %+v", g)
		}
	case snapMetaMsg:
		g := got.(snapMetaMsg)
		// same: equal lists, an empty one decoding as one of no elements.
		same := func(a, b interface{}) bool {
			return reflect.ValueOf(a).Len() == 0 && reflect.ValueOf(b).Len() == 0 || reflect.DeepEqual(a, b)
		}
		if g.Clock != w.Clock || g.Multi != w.Multi || g.Count != w.Count || g.Marks != w.Marks ||
			!same(g.Nodes, w.Nodes) || !same(g.Down, w.Down) || !same(g.Seq, w.Seq) || !same(g.Subs, w.Subs) ||
			!same(g.HotEpochs, w.HotEpochs) || !same(g.HotCounts, w.HotCounts) || !same(g.Delivered, w.Delivered) ||
			!same(g.Retracted, w.Retracted) || !same(g.Identities, w.Identities) || len(g.Conds) != len(w.Conds) || len(g.Sink) != len(w.Sink) || len(g.Standing) != len(w.Standing) {
			t.Fatalf("snapMetaMsg mismatch: %+v", g)
		}
		for i := range w.Conds {
			if g.Conds[i].Key() != w.Conds[i].Key() {
				t.Fatalf("snapMetaMsg condition %d mismatch: %+v", i, g)
			}
		}
		for i, q := range w.Standing {
			if g := g.Standing[i]; g.Key() != q.Key() || g.Subscriber() != q.Subscriber() || g.Text() != q.Text() || g.InsT() != q.InsT() {
				t.Fatalf("snapMetaMsg standing query %d mismatch: %+v", i, g)
			}
		}
		for i := range w.Sink {
			if deliveryKey(g.Sink[i]) != deliveryKey(w.Sink[i]) || g.Sink[i].subscriberIP != w.Sink[i].subscriberIP {
				t.Fatalf("snapMetaMsg notification %d mismatch: %+v", i, g)
			}
		}
	default:
		t.Fatalf("no comparer for %T", want)
	}
}

// spelledIdentity is n's typed identity as a snapshot says it.
func spelledIdentity(n Notification) string {
	var s deliveredSet
	return s.spell(s.identity(nil, n))
}

// assertRewrittenEqual compares two rewrites field by field, each trigger
// through its projection onto its query's shape: what the wire says of it,
// and all a decoded rewrite holds of a rewriter's whole tuple.
// spelled returns q's rewrite at tg whose Key(q') is key, held as a decoder
// holds it: derived where tg derives that key, else spelled by a target of
// its own.
func spelled(key string, q *query.Query, tg *rewriteTarget) *rewritten {
	rw := &rewritten{Orig: q, rewriteTarget: tg}
	if !rw.derives(key) || !tg.derived(q) {
		rw.rewriteTarget = tg.withKey(key)
	}
	return rw
}

func assertRewrittenEqual(t *testing.T, w, g *rewritten) {
	t.Helper()
	if g.key() != w.key() || g.Orig.Key() != w.Orig.Key() || g.IndexSide != w.IndexSide ||
		g.stage() != w.stage() || !slices.Equal(projectedMatch(g), projectedMatch(w)) || *g.Want != *w.Want ||
		!g.WantValue.Equal(w.WantValue) {
		t.Fatalf("rewritten mismatch: %+v vs %+v", g, w)
	}
}

// projectedMatch renders the tuples rw has matched, each projected onto the
// shape its stage travels as, whole where it lacks an attribute of the shape.
func projectedMatch(rw *rewritten) []string {
	var out []string
	for i, t := range rw.matched(nil) {
		if proj, err := t.ProjectOnto(rw.Orig.StageProjection(rw.IndexSide, i+1)); err == nil {
			t = proj
		}
		out = append(out, contentKey(t))
	}
	return out
}

// Every engine message type must report a positive wire size through the
// overlay's sizing function (sizeAfter) so the byte ledger stays meaningful.
func TestAllMessagesImplementSizer(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI})
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	tu := rTuple(env, 1, 7, 0).WithPubT(5)
	proj, err := tu.Project(q.NeededAttrs("R"))
	if err != nil {
		t.Fatal(err)
	}
	rw := spelled("k", q, &rewriteTarget{Trigger: proj, Want: &relation.AttrRef{Rel: "S", Attr: "E"}, WantValue: tu.MustValue("B")})
	notif, err := buildNotification(q, query.SideLeft, proj, sTuple(env, 2, 7, 0).WithPubT(6))
	if err != nil {
		t.Fatal(err)
	}

	msgs := []chord.Message{
		queryMsg{Q: q, Attr: "B"},
		&alIndexMsg{vlIndexMsg: vlIndexMsg{T: tu, Attr: "B"}},
		&vlIndexMsg{T: tu, Attr: "B"},
		&joinMsg{Rewrites: []rewritten{*rw}},
		joinVMsg{Input: "7", Cond: q.ConditionKey(), Value: tu.MustValue("B"), Trigger: tu, Queries: []*query.Query{q}},
		joinBatch{Msgs: []chord.Message{&joinMsg{Rewrites: []rewritten{*rw}}}},
		&notifyMsg{Subscriber: q.Subscriber(), Batch: []Notification{notif}},
		probeMsg{AttrInput: "R+B"},
		&unsubMsg{QueryKey: q.Key(), Cond: q.ConditionKey(), Input: "R+B"},
		&purgeMsg{QueryKey: q.Key(), Input: "S+E+7"},
		hotJoinMsg{Input: "S+E+7", Shard: 1, Rewrites: []rewritten{*rw}},
		hotVLIndexMsg{Input: "S+E+7", Shard: 1, T: tu},
	}
	for _, m := range msgs {
		if size, _ := sizeAfter(m, nil); size <= 0 {
			t.Fatalf("%T reports size %d", m, size)
		}
		if m.Kind() == "" {
			t.Fatalf("%T names no kind for the traffic ledger", m)
		}
	}
}

// The size the overlay charges (sizeAfter) is the exact encoded length of
// every message type, none of them 0, so the byte ledger misses none.
func TestSizeMatchesEncoding(t *testing.T) {
	_, msgs := codecFixtures(t)
	for _, msg := range msgs {
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		if size, shared := sizeAfter(msg, nil); size != w.Len() || size == 0 || shared != 0 {
			t.Fatalf("%T: alone, size %d and %d shared, encoding %d", msg, size, shared, w.Len())
		}
		// Sizing memoizes tuple/query sub-sizes on first use; a second call
		// must serve the same number from the cache.
		if again, _ := sizeAfter(msg, nil); again != w.Len() {
			t.Fatalf("%T: cached size %d, encoding %d", msg, again, w.Len())
		}
	}
}

// The byte ledger must fill up during normal operation, and a routed
// message must charge more bytes than its size (retransmission per hop).
func TestByteAccounting(t *testing.T) {
	env := newTestEnv(t, 128, Config{Algorithm: SAI, Strategy: StrategyLeft})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 1, rTuple(env, 1, 7, 0))
	env.publish(t, 2, sTuple(env, 2, 7, 0))
	tr := env.net.Traffic()
	if tr.TotalBytes() == 0 {
		t.Fatal("no bytes recorded")
	}
	// The query message was routed over several hops: its bytes must
	// exceed a single copy of the message.
	one := MessageSize(queryMsg{Q: env.subscribe(t, 3, `SELECT R.A, S.D FROM R, S WHERE R.C = S.F`), Attr: "C"})
	if got := tr.Bytes("query"); got <= int64(one) {
		t.Fatalf("query bytes = %d, want > one copy (%d)", got, one)
	}
	if tr.Bytes(kindNotify) <= 0 {
		t.Fatal("notification bytes missing")
	}
}

// The With* copy constructors change encoded fields, so a copy made after
// the original's size was memoized must be re-measured, not served the
// stale cached length.
func TestSizeCacheInvalidatedOnCopy(t *testing.T) {
	_, msgs := codecFixtures(t)
	for _, msg := range msgs {
		al, ok := msg.(*alIndexMsg)
		if !ok {
			continue
		}
		if MessageSize(al) != encodedLen(al) {
			t.Fatalf("alIndexMsg: size %d != encoding %d", MessageSize(al), encodedLen(al))
		}
		// A pubT two varint-lengths away changes the tuple's encoded size.
		cp := &alIndexMsg{vlIndexMsg: vlIndexMsg{T: al.T.WithPubT(1 << 20), Attr: al.Attr}, Replica: al.Replica}
		if MessageSize(cp) != encodedLen(cp) {
			t.Fatalf("copied tuple: size %d != encoding %d", MessageSize(cp), encodedLen(cp))
		}
		return
	}
	t.Fatal("no alIndexMsg fixture")
}

func TestQuerySizeCacheInvalidatedOnCopy(t *testing.T) {
	_, msgs := codecFixtures(t)
	for _, msg := range msgs {
		qm, ok := msg.(queryMsg)
		if !ok {
			continue
		}
		if got := querySize(qm.Q, ""); got != querySizeByEncoding(qm.Q) {
			t.Fatalf("query: size %d != encoding %d", got, querySizeByEncoding(qm.Q))
		}
		cp := qm.Q.WithInsT(qm.Q.InsT() + 1<<20)
		if got := querySize(cp, ""); got != querySizeByEncoding(cp) {
			t.Fatalf("copied query: size %d != encoding %d", got, querySizeByEncoding(cp))
		}
		return
	}
	t.Fatal("no queryMsg fixture")
}

// encodedLen is the length of msg's encoding, 0 when it has none.
func encodedLen(msg chord.Message) int {
	var w wire.Buffer
	if err := EncodeMessage(&w, msg); err != nil {
		return 0
	}
	return w.Len()
}

func querySizeByEncoding(q *query.Query) int {
	var w wire.Buffer
	putQuery(&w, q, "")
	return w.Len()
}

// putQuery appends q as a list element after one of text prevText ("" for
// none): its walk in encoding mode.
func putQuery(w *wire.Buffer, q *query.Query, prevText string) {
	c := wire.Encoder(w)
	c.Query(&q, prevText)
	_ = c.Flush(w) // only decoding fails a query's walk
}

// querySize returns the length putQuery appends: the walk in sizing mode.
func querySize(q *query.Query, prevText string) int {
	var c wire.Coder
	c.Query(&q, prevText)
	return c.Size()
}

// putValue appends one attribute value.
func putValue(w *wire.Buffer, v relation.Value) {
	c := wire.Encoder(w)
	c.Value(&v)
	_ = c.Flush(w) // only decoding fails a value's walk
}

// putTuple appends t as it travels where its receiver expects shape of it.
func putTuple(w *wire.Buffer, t *relation.Tuple, shape *relation.Schema) {
	c := wire.Encoder(w)
	c.Tuple(&t, shape)
	_ = c.Flush(w) // only decoding fails a tuple's walk
}

// tupleSize returns the length putTuple appends.
func tupleSize(t *relation.Tuple, shape *relation.Schema) int {
	var c wire.Coder
	c.Tuple(&t, shape)
	return c.Size()
}

func TestDecodeUnknownTag(t *testing.T) {
	var w wire.Buffer
	w.PutUvarint(200)
	if _, err := DecodeMessage(wire.NewReader(w.Bytes()), nil); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

// A decoder with a sticky error could swallow a failure and hand back zero
// values: every strict prefix of every encoding must be rejected.
func TestDecodeTruncated(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	for _, msg := range msgs {
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
		full := w.Bytes()
		// Some prefixes are whole messages, cut where an earlier build ended
		// them: a snapshot meta before Delivered and Count (PR 20), which says
		// that its Sink is all that was delivered, before Marks (eda9bcf),
		// before its standing queries (7c5f42a) and before its retraction
		// memory (f861414); a
		// hand-off before its marks and retraction memory (PR 25) and before its
		// grants (PR 32).
		whole := map[int]func(chord.Message) bool{}
		switch m := msg.(type) {
		case snapMetaMsg:
			var tail wire.Coder
			if len(m.Identities) > 0 {
				tail.Strings(&m.Identities)
				whole[len(full)-tail.Size()] = func(got chord.Message) bool {
					g, ok := got.(snapMetaMsg)
					return ok && g.Identities == nil && len(g.Retracted) == len(m.Retracted) && len(g.Delivered) == len(m.Delivered)
				}
			}
			if len(m.Retracted) > 0 || len(m.Identities) > 0 {
				tail.Strings(&m.Retracted)
				whole[len(full)-tail.Size()] = func(got chord.Message) bool {
					g, ok := got.(snapMetaMsg)
					return ok && g.Retracted == nil && len(g.Standing) == len(m.Standing) && g.Marks == m.Marks
				}
			}
			if len(m.Standing) > 0 || len(m.Retracted) > 0 || len(m.Identities) > 0 {
				tail.Queries(&m.Standing)
				whole[len(full)-tail.Size()] = func(got chord.Message) bool {
					g, ok := got.(snapMetaMsg)
					return ok && g.Standing == nil && g.Marks == m.Marks && len(g.Subs) == len(m.Subs)
				}
			}
			if m.Marks || len(m.Standing) > 0 || len(m.Retracted) > 0 || len(m.Identities) > 0 {
				tail.Bool(&m.Marks)
				whole[len(full)-tail.Size()] = func(got chord.Message) bool {
					g, ok := got.(snapMetaMsg)
					return ok && !g.Marks && g.Count == m.Count
				}
			}
			tail.Strings(&m.Delivered)
			tail.Int(&m.Count)
			whole[len(full)-tail.Size()] = func(got chord.Message) bool {
				g, ok := got.(snapMetaMsg)
				return ok && g.Count == len(g.Sink) && g.Delivered == nil && !g.Marks
			}
		case handoffMsg:
			if m.marked() {
				var tail wire.Coder
				if len(m.Hot) > 0 {
					wire.Slice(&tail, &m.Hot)
					for i := range m.Hot {
						m.Hot[i].walk(&tail)
					}
					whole[len(full)-tail.Size()] = func(got chord.Message) bool {
						g, ok := got.(handoffMsg)
						return ok && len(g.Hot) == 0 && len(g.VQ) == len(m.VQ)
					}
				}
				if m.forwarded() {
					for i := range m.VQ {
						walkTargets(&tail, &m.VQ[i].SentTargets)
					}
					whole[len(full)-tail.Size()] = func(got chord.Message) bool {
						g, ok := got.(handoffMsg)
						return ok && !g.forwarded() && len(g.VQ) == len(m.VQ)
					}
				}
				if m.granted() {
					for i := range m.AL {
						tail.Strings(&m.AL[i].Grants)
					}
					whole[len(full)-tail.Size()] = func(got chord.Message) bool {
						g, ok := got.(handoffMsg)
						return ok && !g.granted() && len(g.AL) == len(m.AL)
					}
				}
				for i := range m.AL {
					tail.Strings(&m.AL[i].Interest)
				}
				tail.Strings(&m.Retracted)
				whole[len(full)-tail.Size()] = func(got chord.Message) bool {
					g, ok := got.(handoffMsg)
					return ok && !g.marked() && len(g.AL) == len(m.AL)
				}
			}
		}
		// A value-level section says its identifier behind the empty input
		// that marks it, whole or not at all: cut anywhere past the marker,
		// walkVLID refuses it.
		if m, ok := msg.(handoffMsg); ok {
			var ids []id.ID
			for _, sec := range m.VQ {
				ids = append(ids, sec.ID)
			}
			for _, sec := range m.VT {
				ids = append(ids, sec.ID)
			}
			for _, h := range ids {
				marked := append([]byte{0, byte(len(h))}, h[:]...)
				if !bytes.Contains(full, marked) {
					t.Fatalf("%T says no marker and identifier %s", msg, h)
				}
				for cut := 1; cut < len(marked); cut++ {
					c := wire.Decoder(wire.NewReader(marked[:cut]), catalog, nil)
					var got id.ID
					if walkVLID(&c, &got); c.Err() == nil {
						t.Fatalf("a section identifier cut at %d of %d decoded as %s", cut, len(h), got)
					}
				}
			}
		}
		for cut := 0; cut < len(full); cut++ {
			got, err := DecodeMessage(wire.NewReader(full[:cut]), catalog)
			if asParent := whole[cut]; asParent != nil {
				if err != nil || !asParent(got) {
					t.Fatalf("%T cut at %d of %d, where an earlier build ended it, decoded as %+v (%v)", msg, cut, len(full), got, err)
				}
			} else if err == nil {
				t.Fatalf("%T: truncation at %d of %d accepted", msg, cut, len(full))
			}
		}
	}
}

// Every tag has a fixture, whose encoding leads with that tag and decodes to
// the fixture's own type, the one type the tag leads: the two switches of
// codec.go pair each message kind with one tag, both ways. The retired tags
// (retiredTags) are the blanks: reserved, led by nothing (TestWireGolden
// holds the decoder to refusing them).
func TestEveryTagRoundTrips(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	fixtures := map[byte]chord.Message{}
	for _, msg := range msgs {
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		tag := w.Bytes()[0]
		if prev, dup := fixtures[tag]; dup && reflect.TypeOf(prev) != reflect.TypeOf(msg) {
			t.Fatalf("tag %d leads both %T and %T", tag, prev, msg)
		}
		fixtures[tag] = msg
		got, err := DecodeMessage(wire.NewReader(w.Bytes()), catalog)
		if err != nil || reflect.TypeOf(got) != reflect.TypeOf(msg) {
			t.Fatalf("tag %d: a %T decoded as %T (%v)", tag, msg, got, err)
		}
	}
	for tag := tagQuery; tag <= tagHotVLIndex; tag++ {
		if (fixtures[tag] == nil) != slices.Contains(retiredTags, int(tag)) {
			t.Errorf("tag %d: fixture %T in codecFixtures", tag, fixtures[tag])
		}
	}
	if len(fixtures) != int(tagHotVLIndex)-len(retiredTags) {
		t.Errorf("%d tags in use, the constants declare %d and %d blanks", len(fixtures), tagHotVLIndex, len(retiredTags))
	}
}

// The decode side reuses schemas the receiver already holds: a full tuple
// takes the catalog's schema, a rewritten query's trigger takes the decoded
// query's plan schema, and a group of one SQL text decodes to queries that
// share one plan — whose every field still equals the sender's.
func TestCodecDecodeReusesCatalogAndPlanSchemas(t *testing.T) {
	env := newTestEnv(t, 16, Config{Algorithm: SAI})
	const sql = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND S.F >= 1`
	tu := rTuple(env, 1, 7, 2).WithPubT(9)
	var rws []rewritten
	for i := 0; i < 3; i++ {
		q := env.subscribe(t, i, sql)
		proj, err := tu.ProjectOnto(q.Projection(query.SideLeft))
		if err != nil {
			t.Fatal(err)
		}
		rws = append(rws, *spelled(q.Key()+"+1+7", q, &rewriteTarget{
			IndexSide: query.SideLeft, Trigger: proj,
			Want: &relation.AttrRef{Rel: "S", Attr: "E"}, WantValue: relation.N(7),
		}))
	}
	roundTrip := func(msg chord.Message) chord.Message {
		t.Helper()
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
		if s := MessageSize(msg); s != w.Len() {
			t.Fatalf("%T: size %d, encoding %d", msg, s, w.Len())
		}
		got, err := DecodeMessage(wire.NewReader(w.Bytes()), env.catalog)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	al := roundTrip(&alIndexMsg{vlIndexMsg: vlIndexMsg{T: tu, Attr: "B"}}).(*alIndexMsg)
	if al.T.Schema() != env.r {
		t.Fatal("a full tuple did not decode onto the catalog's schema")
	}
	if contentKey(al.T) != contentKey(tu) {
		t.Fatalf("content key changed over the wire: %q vs %q", contentKey(al.T), contentKey(tu))
	}

	join := roundTrip(&joinMsg{Rewrites: rws}).(*joinMsg)
	for i := range join.Rewrites {
		g, w := &join.Rewrites[i], &rws[i]
		assertRewrittenEqual(t, w, g)
		if g.Trigger.Schema() != g.Orig.Projection(query.SideLeft) || g.Trigger.Schema() != w.Trigger.Schema() {
			t.Fatalf("rewrite %d: trigger did not decode onto the plan's projection schema", i)
		}
		if g.Orig.ConditionKey() != w.Orig.ConditionKey() || g.Orig.Type() != w.Orig.Type() {
			t.Fatalf("rewrite %d: plan condition/type changed over the wire", i)
		}
		for _, s := range []query.Side{query.SideLeft, query.SideRight} {
			rel := w.Orig.Rel(s).Name()
			if !reflect.DeepEqual(g.Orig.SideAttrs(s), w.Orig.SideAttrs(s)) ||
				!reflect.DeepEqual(g.Orig.NeededAttrs(rel), w.Orig.NeededAttrs(rel)) ||
				g.Orig.Projection(s) != w.Orig.Projection(s) {
				t.Fatalf("rewrite %d: plan of side %s changed over the wire", i, s)
			}
		}
		if g.Orig.Key() == join.Rewrites[(i+1)%3].Orig.Key() {
			t.Fatal("queries parsed once lost their own identities")
		}
	}
}

// A decoder builds one rewriteTarget per group and projection shape, as
// targets holding projected triggers are sent: a rewrite whose target
// bytes repeat its predecessor's takes the predecessor's *rewriteTarget, in
// a join message, a scattered hot-join and the VLQT entries of a hand-off
// alike, and a message mixing targets yields one per run. A rewrite that
// spells a key its target does not derive takes a target of its own.
func TestCodecDecodeSharesRewriteTargets(t *testing.T) {
	env := newTestEnv(t, 16, Config{Algorithm: SAI})
	const sql = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	var qs []*query.Query
	for i := 0; i < 4; i++ {
		qs = append(qs, env.subscribe(t, i, sql))
	}
	// A fifth subscriber needs one more attribute: another projection shape.
	wide := env.subscribe(t, 4, `SELECT R.A, R.C, S.D FROM R, S WHERE R.B = S.E`)
	target := func(q *query.Query, key float64, pubT int64) *rewriteTarget {
		t.Helper()
		proj, err := rTuple(env, 1, key, 2).WithPubT(pubT).ProjectOnto(q.Projection(query.SideLeft))
		if err != nil {
			t.Fatal(err)
		}
		return &rewriteTarget{IndexSide: query.SideLeft, Trigger: proj, Want: &relation.AttrRef{Rel: "S", Attr: "E"}, WantValue: relation.N(key)}
	}
	group := func(tg *rewriteTarget, qs ...*query.Query) []rewritten {
		var rws []rewritten
		for _, q := range qs {
			rws = append(rws, rewritten{Orig: q, rewriteTarget: tg})
		}
		return rws
	}
	roundTrip := func(msg chord.Message) chord.Message {
		t.Helper()
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
		if s := MessageSize(msg); s != w.Len() {
			t.Fatalf("%T: size %d, encoding %d", msg, s, w.Len())
		}
		got, err := DecodeMessage(wire.NewReader(w.Bytes()), env.catalog)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// assertRuns checks the decoded rewrites equal the sent ones and share a
	// target exactly where the sent neighbours do.
	assertRuns := func(what string, sent, got []rewritten, wantTargets int) {
		t.Helper()
		if len(got) != len(sent) {
			t.Fatalf("%s: %d rewrites decoded, sent %d", what, len(got), len(sent))
		}
		targets := map[*rewriteTarget]bool{}
		for i := range got {
			g := &got[i]
			assertRewrittenEqual(t, &sent[i], g)
			targets[g.rewriteTarget] = true
			if i > 0 && (g.rewriteTarget == got[i-1].rewriteTarget) != (sent[i].rewriteTarget == sent[i-1].rewriteTarget) {
				t.Fatalf("%s: rewrites %d and %d share a target: %v, the sender's: %v", what, i-1, i,
					g.rewriteTarget == got[i-1].rewriteTarget, sent[i].rewriteTarget == sent[i-1].rewriteTarget)
			}
		}
		if len(targets) != wantTargets {
			t.Fatalf("%s: %d distinct targets decoded, want %d", what, len(targets), wantTargets)
		}
	}

	one := group(target(qs[0], 7, 9), qs...)
	assertRuns("one group", one, roundTrip(&joinMsg{Rewrites: one}).(*joinMsg).Rewrites, 1)
	var spelledOne []rewritten
	for _, rw := range one {
		spelledOne = append(spelledOne, *spelled(rw.Orig.Key()+"+7", rw.Orig, rw.rewriteTarget))
	}
	assertRuns("one group, keys spelled", spelledOne, roundTrip(&joinMsg{Rewrites: spelledOne}).(*joinMsg).Rewrites, len(qs))
	// A derived key behind a spelled one repeats its target, and does not
	// take its key.
	behind := []rewritten{spelledOne[0], one[1]}
	assertRuns("a derived key behind a spelled one", behind, roundTrip(&joinMsg{Rewrites: behind}).(*joinMsg).Rewrites, 2)

	// Two triggers' groups, then the wide query's own shape of the second.
	second := target(qs[0], 8, 11)
	mixed := slices.Concat(one[:2], group(second, qs[2], qs[3]), group(target(wide, 8, 11), wide))
	assertRuns("two groups and a shape", mixed, roundTrip(&joinMsg{Rewrites: mixed}).(*joinMsg).Rewrites, 3)

	hot := roundTrip(hotJoinMsg{Input: "S+E+7", Shard: 1, Rewrites: one}).(hotJoinMsg)
	assertRuns("hot-join", one, hot.Rewrites, 1)

	entries := func(rws []rewritten) []vqEntry {
		var es []vqEntry
		for i := range rws {
			es = append(es, vqEntry{Rw: &rws[i], Times: []int64{int64(i), int64(i) + 5}})
		}
		return es
	}
	unwrap := func(es []vqEntry) []rewritten {
		var rws []rewritten
		for _, e := range es {
			rws = append(rws, *e.Rw)
		}
		return rws
	}
	ho := roundTrip(handoffMsg{VQ: []vqSection{{ID: id.Hash("S+E+7"), Entries: entries(mixed)}}}).(handoffMsg)
	assertRuns("hand-off section", mixed, unwrap(ho.VQ[0].Entries), 3)
}

// Hostile input never aliases a shared schema: a tuple whose attribute list
// is not exactly the catalog's or the plan's decodes onto a private schema,
// and the shared ones are left as they were.
func TestCodecForgedTupleGetsPrivateSchema(t *testing.T) {
	env := newTestEnv(t, 16, Config{Algorithm: SAI})
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	shape := q.Projection(query.SideLeft) // R(A, B)
	forge := func(attrs ...string) *relation.Tuple {
		t.Helper()
		var w wire.Buffer
		w.PutString("R")
		w.PutUvarint(uint64(len(attrs)))
		for _, a := range attrs {
			w.PutString(a)
		}
		for i := range attrs {
			putValue(&w, relation.N(float64(i)))
		}
		w.PutVarint(5)
		r := wire.NewReader(w.Bytes())
		c := wire.Decoder(r, env.catalog, nil)
		var tu *relation.Tuple
		c.Tuple(&tu, shape)
		if err := c.Sync(r); err != nil {
			t.Fatalf("forged %v: %v", attrs, err)
		}
		return tu
	}
	if got := forge("A", "B", "C"); got.Schema() != env.r {
		t.Fatal("the catalog's own list did not reuse the catalog schema")
	}
	if got := forge("A", "B"); got.Schema() != shape {
		t.Fatal("the plan's own list did not reuse the plan schema")
	}
	for _, attrs := range [][]string{
		{"B", "A"},           // the plan's attributes, reordered
		{"A", "B", "C", "Z"}, // the catalog's plus one it never declared
		{"A", "C"},           // a subset neither holds
		{"A", "B", "Z"},      // the catalog's arity, a foreign name
	} {
		got := forge(attrs...)
		if got.Schema() == env.r || got.Schema() == shape {
			t.Fatalf("forged list %v aliased a shared schema", attrs)
		}
		if !reflect.DeepEqual(got.Schema().Attrs(), attrs) {
			t.Fatalf("forged list %v decoded as %v", attrs, got.Schema().Attrs())
		}
	}
	if !reflect.DeepEqual(env.r.Attrs(), []string{"A", "B", "C"}) || !reflect.DeepEqual(shape.Attrs(), []string{"A", "B"}) {
		t.Fatal("decoding forged tuples altered a shared schema")
	}
	if again := query.MustParse(env.catalog, q.Text()).Projection(query.SideLeft); again != shape {
		t.Fatal("decoding forged tuples disturbed the interned projection")
	}
}

// A WireCodec decodes a standing query once: later messages carrying the
// same bytes get the same *query.Query, across messages and message kinds.
// DecodeMessage shares nothing between calls, and a hand-off — a node's
// whole state, decoded once — goes through a memo of its own and leaves the
// codec's untouched.
func TestWireCodecSharesStandingQueriesAcrossMessages(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	encode := func(msg chord.Message) []byte {
		t.Helper()
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	var join, hot, handoff []byte
	for _, msg := range msgs {
		switch msg.(type) {
		case *joinMsg:
			if join == nil { // the two-way one: the chain's is another query
				join = encode(msg)
			}
		case hotJoinMsg:
			hot = encode(msg)
		case handoffMsg:
			handoff = encode(msg)
		}
	}
	reg := obs.NewRegistry()
	codec := NewWireCodec(catalog)
	codec.Observe(reg)
	lookups := func() int64 {
		return reg.Counter("codec.memo_hits").Value() + reg.Counter("codec.memo_misses").Value()
	}
	if _, err := codec.Decode(wire.NewReader(handoff)); err != nil {
		t.Fatal(err)
	}
	if n := lookups(); n != 0 {
		t.Fatalf("decoding a hand-off made %d lookups in the codec's long-lived memo", n)
	}
	first, err := codec.Decode(wire.NewReader(join))
	if err != nil {
		t.Fatal(err)
	}
	again, err := codec.Decode(wire.NewReader(join))
	if err != nil {
		t.Fatal(err)
	}
	scattered, err := codec.Decode(wire.NewReader(hot))
	if err != nil {
		t.Fatal(err)
	}
	q := first.(*joinMsg).Rewrites[0].Orig
	if again.(*joinMsg).Rewrites[0].Orig != q || scattered.(hotJoinMsg).Rewrites[0].Orig != q {
		t.Fatal("a codec decoded one standing query into several values")
	}
	if hits, misses := reg.Counter("codec.memo_hits").Value(), reg.Counter("codec.memo_misses").Value(); misses != 1 || hits != 5 {
		t.Fatalf("memo counted %d hits and %d misses over six decodes of one query, want 5 and 1", hits, misses)
	}
	alone, err := DecodeMessage(wire.NewReader(join), catalog)
	if err != nil {
		t.Fatal(err)
	}
	assertRewrittenEqual(t, &first.(*joinMsg).Rewrites[0], &alone.(*joinMsg).Rewrites[0])
	if alone.(*joinMsg).Rewrites[0].Orig == q {
		t.Fatal("DecodeMessage returned a query of the codec's memo")
	}
}

// orphanMarkers hand-writes messages whose first list element already uses a
// say-it-once marker — an empty rewrite key behind a side that derives
// nothing, an empty SQL text, the side that repeats a target, an empty
// notification key — plus one whose second rewrite drops its key after a
// predecessor whose own key does not extend its query's. "whole" is the
// well-formed join they are all cut from, its target derived from the trigger
// (tg's wants must be what rewriteTarget.wants derives).
func orphanMarkers(tb testing.TB, q *query.Query, tg *rewriteTarget) map[string][]byte {
	tb.Helper()
	rewrite := func(w *wire.Buffer, key string, text bool, side query.Side) {
		w.PutString(key)
		if text {
			putQuery(w, q, "")
		} else {
			putQuery(w, q, q.Text()) // the text as its predecessor's: empty
		}
		w.PutUvarint(uint64(side))
		if side != sideRepeat {
			c := wire.Encoder(w)
			tg.walk(&c, q, side >= sideDerived, side >= sideChain)
			if err := c.Flush(w); err != nil {
				tb.Fatal(err)
			}
		}
	}
	join := func(rewrites ...func(*wire.Buffer)) []byte {
		var w wire.Buffer
		w.PutUvarint(uint64(tagJoin))
		w.PutUvarint(uint64(len(rewrites)))
		for _, put := range rewrites {
			put(&w)
		}
		return w.Bytes()
	}
	one := func(key string, text bool, side query.Side) []byte {
		return join(func(w *wire.Buffer) { rewrite(w, key, text, side) })
	}
	var notify wire.Buffer
	notify.PutUvarint(uint64(tagNotify))
	notify.PutString(q.Subscriber())
	notify.PutUvarint(1)
	for _, s := range []string{"", "", q.SubscriberIP()} { // key, subscriber, address
		notify.PutString(s)
	}
	notify.PutUvarint(0)
	for i := 0; i < 3; i++ {
		notify.PutVarint(int64(i))
	}
	chained, derived := q.Key()+"+7", tg.IndexSide+sideDerived
	return map[string][]byte{
		"whole":                      one(chained, true, derived),
		"first rewrite, no key":      one("", true, tg.IndexSide),
		"first rewrite, no text":     one(chained, false, derived),
		"first rewrite, no target":   one(chained, true, sideRepeat),
		"first notification, no key": notify.Bytes(),
		"no key after an unchained one": join(
			func(w *wire.Buffer) { rewrite(w, "elsewhere+7", true, derived) },
			func(w *wire.Buffer) { rewrite(w, "", false, sideRepeat) }),
	}
}

// A marker says "as my predecessor": where there is none — the first rewrite
// of a message, the first notification of a batch, a key after one that was
// not built from its query's — the message fails to decode, cleanly, and
// through a long-lived memo too.
func TestMarkerWithoutPredecessorFailsToDecode(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	rw := msgs[3].(*joinMsg).Rewrites[0]
	inputs := orphanMarkers(t, rw.Orig, rw.rewriteTarget)
	whole := &joinMsg{Rewrites: []rewritten{*spelled(rw.Orig.Key()+"+7", rw.Orig, rw.rewriteTarget)}}
	if got := inputs["whole"]; len(got) != encodedLen(whole) || len(got) != MessageSize(whole) {
		t.Fatalf("the hand-written join is %d bytes, the codec's %d: the variants below test nothing", len(got), encodedLen(whole))
	}
	codec := NewWireCodec(catalog)
	for what, data := range inputs {
		_, err := DecodeMessage(wire.NewReader(data), catalog)
		_, memoErr := codec.Decode(wire.NewReader(data))
		if (err == nil) != (what == "whole") || (memoErr == nil) != (what == "whole") {
			t.Errorf("%s: decode said %v, through a codec %v", what, err, memoErr)
		}
	}
	// The same markers after a predecessor that carries what they repeat.
	twice := &joinMsg{Rewrites: []rewritten{whole.Rewrites[0], whole.Rewrites[0]}}
	if saved := 2*len(inputs["whole"]) - 2 - encodedLen(twice); saved < querySize(rw.Orig, "")-querySize(rw.Orig, rw.Orig.Text())+len("+7") {
		t.Fatalf("a repeated rewrite saved %d bytes", saved)
	}
}

// What a message elides is decided on values: a join whose rewrites were
// built apart — their own queries, parsed from their own copies of the text,
// their own equal targets — encodes byte for byte like one whose group shares
// one target by pointer, and like the message its decoder rebuilds; a sim run
// that passes the sender's values along and a TCP run that decodes at every
// hop then charge the same bytes. A receiver whose catalog declares another
// arity for a relation fails a message carrying its tuple.
func TestJoinSizeSurvivesDecode(t *testing.T) {
	env := newTestEnv(t, 16, Config{Algorithm: SAI})
	const sql = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	var apart, shared []rewritten
	var alone int
	for i := 0; i < 4; i++ {
		q := env.subscribe(t, i, string([]byte(sql)))
		proj, err := rTuple(env, 1, 7, 2).WithPubT(9).Project(q.NeededAttrs("R")) // a schema of its own each time
		if err != nil {
			t.Fatal(err)
		}
		tg := &rewriteTarget{IndexSide: query.SideLeft, Trigger: proj, Want: &relation.AttrRef{Rel: "S", Attr: "E"}, WantValue: relation.N(7)}
		apart = append(apart, *spelled(q.Key()+"+1+7", q, tg))
		shared = append(shared, *spelled(q.Key()+"+1+7", q, apart[0].rewriteTarget))
		alone += encodedLen(&joinMsg{Rewrites: apart[i:]}) - 2 // less tag and count
	}
	// A second group: another trigger, so another target and key suffix, and
	// the same text still.
	q := apart[0].Orig
	proj, err := rTuple(env, 2, 8, 2).WithPubT(10).ProjectOnto(q.Projection(query.SideLeft))
	if err != nil {
		t.Fatal(err)
	}
	next := *spelled(q.Key()+"+2+8", q, &rewriteTarget{
		IndexSide: query.SideLeft, Trigger: proj, Want: &relation.AttrRef{Rel: "S", Attr: "E"}, WantValue: relation.N(8)})
	apart, shared = append(apart, next), append(shared, next)

	var w wire.Buffer
	if err := EncodeMessage(&w, &joinMsg{Rewrites: apart}); err != nil {
		t.Fatal(err)
	}
	size := w.Len()
	// Alone, a rewrite is an empty key (its receiver derives Key(q')), its
	// query and its target: a derived side, then the trigger.
	target := 1 + tupleSize(apart[0].Trigger, q.Projection(query.SideLeft))
	if got, want := encodedLen(&joinMsg{Rewrites: apart[:1]}), 2+1+querySize(apart[0].Orig, "")+target; got != want {
		t.Fatalf("a rewrite alone is %d bytes, want %d: an empty key, a %d-byte query and a %d-byte target",
			got, want, querySize(apart[0].Orig, ""), target)
	}
	// Each rewrite after the first writes one byte for its text, one for its
	// key (Key(q) is in the query just ahead) and one for its target.
	text := querySize(q, "") - querySize(q, sql) + 1 // the text field, said in full
	want := 2 + alone - 3*(text+target-2)
	if got := encodedLen(&joinMsg{Rewrites: apart[:4]}); got != want {
		t.Fatalf("the group of four is %d bytes, want %d: one by one its rewrites are %d, and three repeat a %d-byte text and a %d-byte target",
			got, want, alone, text, target)
	}
	got, err := DecodeMessage(wire.NewReader(w.Bytes()), env.catalog)
	if err != nil {
		t.Fatal(err)
	}
	decoded := got.(*joinMsg)
	for what, msg := range map[string]*joinMsg{"built apart": {Rewrites: apart}, "sharing a target": {Rewrites: shared}, "decoded": decoded} {
		if MessageSize(msg) != size {
			t.Errorf("%s: Size() = %d, the message travelled as %d bytes", what, MessageSize(msg), size)
		}
		var again wire.Buffer
		if err := EncodeMessage(&again, msg); err != nil || !bytes.Equal(again.Bytes(), w.Bytes()) {
			t.Errorf("%s: encodes as (%v)\n%x\nthe message travelled as\n%x", what, err, again.Bytes(), w.Bytes())
		}
	}
	for i := range decoded.Rewrites {
		g := &decoded.Rewrites[i]
		assertRewrittenEqual(t, &apart[i], g)
		if (g.rewriteTarget == decoded.Rewrites[0].rewriteTarget) != (i < 4) {
			t.Errorf("rewrite %d: shares the first group's target: %v", i, i >= 4)
		}
	}

	// A trigger's shape comes from the query text both ends parse; a full
	// tuple's from the catalog, and there the ends can disagree.
	narrow := relation.MustCatalog(relation.MustSchema("R", "A", "B"), env.s)
	var al wire.Buffer
	if err := EncodeMessage(&al, &alIndexMsg{vlIndexMsg: vlIndexMsg{T: rTuple(env, 1, 7, 2), Attr: "B"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(wire.NewReader(al.Bytes()), narrow); err == nil {
		t.Error("a three-attribute R tuple decoded under a catalog whose R has two")
	}
}

// hostileTokens returns query message qm with its token form forged to what no
// catalog-bound stream holds — an ordinal past the fixtures' catalog of seven
// relations, an attribute ordinal past R's arity, a code no word has, the
// form cut short — or to a stream that spells a text Parse refuses.
func hostileTokens(tb testing.TB, qm queryMsg) map[string][]byte {
	tb.Helper()
	var w wire.Buffer
	if err := EncodeMessage(&w, qm); err != nil {
		tb.Fatal(err)
	}
	tokens := qm.Q.Tokens()
	at := bytes.Index(w.Bytes(), append([]byte{0}, tokens...))
	if at < 1 || len(tokens) >= 127 || w.Bytes()[at-1] != byte(1+len(tokens)) {
		tb.Fatalf("no one-byte-sized token form in %x", w.Bytes())
	}
	forge := func(forged ...byte) []byte {
		var f wire.Buffer
		f.PutRaw(w.Bytes()[:at-1])
		f.PutBytes(append([]byte{0}, forged...))
		f.PutRaw(w.Bytes()[at+1+len(tokens):])
		return f.Bytes()
	}
	const selectCode, fromCode, codeRel, formCol = 1, 2, 26, 1 // query/tokens.go
	return map[string][]byte{
		"relation past the catalog": forge(selectCode, codeRel+2*7),
		"attribute past the arity":  forge(selectCode, codeRel+2*5+formCol, 3),
		"unknown code":              forge(selectCode, 0),
		"truncated":                 forge(tokens[:len(tokens)-1]...),
		"a text Parse refuses":      forge(selectCode, fromCode),
	}
}

// A token form the receiver's catalog cannot spell, or that spells no query,
// fails the message, alone and through a long-lived codec; the same message
// with its own token form decodes.
func TestHostileTokenFormFailsToDecode(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	if catalog.At(7) != nil || catalog.Lookup("R") != catalog.At(5) || catalog.At(5).Arity() != 3 {
		t.Fatalf("the forged ordinals assume a catalog of seven relations, R fifth of three attributes: %v", catalog.Schemas())
	}
	codec := NewWireCodec(catalog)
	for what, data := range hostileTokens(t, msgs[0].(queryMsg)) {
		if got, err := DecodeMessage(wire.NewReader(data), catalog); err == nil {
			t.Errorf("%s: decoded to %+v", what, got)
		}
		if got, err := codec.Decode(wire.NewReader(data)); err == nil {
			t.Errorf("%s: decoded through a codec to %+v", what, got)
		}
	}
}

// queriesOf returns the two-way queries msg carries.
func queriesOf(msg chord.Message) []*query.Query {
	var qs []*query.Query
	rewrites := func(rws []rewritten) {
		for _, rw := range rws {
			qs = append(qs, rw.Orig)
		}
	}
	switch m := msg.(type) {
	case queryMsg:
		qs = append(qs, m.Q)
	case joinVMsg:
		qs = append(qs, m.Queries...)
	case snapMetaMsg:
		qs = append(append(qs, m.Conds...), m.Standing...)
	case *joinMsg:
		rewrites(m.Rewrites)
	case hotJoinMsg:
		rewrites(m.Rewrites)
	case handoffMsg:
		for _, sec := range m.AL {
			for _, g := range sec.Groups {
				qs = append(qs, g.Queries...)
			}
		}
		for _, sec := range m.VQ {
			for _, e := range sec.Entries {
				qs = append(qs, e.Rw.Orig)
			}
		}
	}
	return qs
}

// Every query wire.golden carries, decoded from its line, and a query with
// string and number literals, an alias and selections, travel as their token
// form: a query message says it in place of the text, and decodes — alone and
// through a long-lived codec — to the query sent, which encodes to the same
// bytes again.
func TestQueryShapesTravelAsTokens(t *testing.T) {
	catalog, _ := codecFixtures(t)
	var shapes []*query.Query
	for _, line := range goldenLines(t, "testdata/wire.golden") {
		name, enc, _ := strings.Cut(line, " ")
		raw, err := hex.DecodeString(enc)
		if err != nil || strings.Contains(line, " after ") || slices.Contains(retiredTags, int(raw[0])) {
			continue
		}
		msg, err := DecodeMessage(wire.NewReader(raw), catalog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shapes = append(shapes, queriesOf(msg)...)
	}
	if len(shapes) < 10 {
		t.Fatalf("the golden lines carry %d queries", len(shapes))
	}
	for _, sql := range []string{
		`SELECT D.Title, A.Surname FROM Document AS D, Authors AS A WHERE D.AuthorId = A.Id AND A.Name = 'Ada' AND D.Conference != "VLDB"`,
		`SELECT R.A, S.D FROM R, S WHERE R.B * 1.5 = S.E - 2 AND R.C >= 0.25`,
	} {
		shapes = append(shapes, query.MustParse(catalog, sql).WithIdentity("peer4", "sim://4", 2).WithInsT(31))
	}
	codec := NewWireCodec(catalog)
	for _, q := range shapes {
		msg := queryMsg{Q: q, Side: query.SideLeft, Attr: q.SideAttrs(query.SideLeft)[0]}
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
		if q.Tokens() == nil || !bytes.Contains(w.Bytes(), append([]byte{0}, q.Tokens()...)) || bytes.Contains(w.Bytes(), []byte(q.Text())) {
			t.Errorf("%s: travels as %x, not its token form", q.Text(), w.Bytes())
			continue
		}
		for _, decode := range []func(*wire.Reader) (chord.Message, error){
			func(r *wire.Reader) (chord.Message, error) { return DecodeMessage(r, catalog) }, codec.Decode,
		} {
			got, err := decode(wire.NewReader(w.Bytes()))
			if err != nil {
				t.Fatalf("%s: %v", q.Text(), err)
			}
			g := got.(queryMsg).Q
			if g.Text() != q.Text() || g.Key() != q.Key() || g.InsT() != q.InsT() || g.ConditionKey() != q.ConditionKey() || len(g.Filters()) != len(q.Filters()) {
				t.Errorf("%s: decoded to %s (%s, %d filters)", q.Text(), g.Text(), g.ConditionKey(), len(g.Filters()))
			}
			var again wire.Buffer
			if err := EncodeMessage(&again, got); err != nil || !bytes.Equal(again.Bytes(), w.Bytes()) {
				t.Errorf("%s: decoded and sent again as (%v)\n%x, not\n%x", q.Text(), err, again.Bytes(), w.Bytes())
			}
		}
	}
}
