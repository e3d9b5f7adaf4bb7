package engine

import (
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/query"
)

// Every engine message type must report a positive wire size so the byte
// ledger stays meaningful.
func TestAllMessagesImplementSizer(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI})
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	tu := rTuple(env, 1, 7, 0).WithPubT(5)
	proj, err := tu.Project(q.NeededAttrs("R"))
	if err != nil {
		t.Fatal(err)
	}
	rw := &rewritten{Key: "k", Orig: q, rewriteTarget: &rewriteTarget{Trigger: proj, WantRel: "S", WantAttr: "E", WantValue: tu.MustValue("B")}}
	notif, err := buildNotification(q, query.SideLeft, proj, sTuple(env, 2, 7, 0).WithPubT(6))
	if err != nil {
		t.Fatal(err)
	}

	msgs := []chord.Message{
		queryMsg{Q: q, Attr: "B"},
		&alIndexMsg{T: tu, Attr: "B"},
		vlIndexMsg{T: tu, Attr: "B"},
		joinMsg{Rewrites: []*rewritten{rw}},
		joinVMsg{Input: "7", Cond: q.ConditionKey(), Value: tu.MustValue("B"), Trigger: tu, Queries: []*query.Query{q}},
		joinBatch{Msgs: []chord.Message{joinMsg{Rewrites: []*rewritten{rw}}}},
		notifyMsg{Subscriber: q.Subscriber(), Batch: []Notification{notif}},
		probeMsg{AttrInput: "R+B"},
		unsubMsg{QueryKey: q.Key(), Cond: q.ConditionKey(), Input: "R+B"},
		purgeMsg{QueryKey: q.Key(), Input: "S+E+7"},
		baselineQueryMsg{Q: q, Input: "R"},
		baselineTupleMsg{T: tu, Input: "R"},
		baselineProbeMsg{Rewrites: []*rewritten{rw}, Input: "S"},
		hotJoinMsg{Input: "S+E+7", Shard: 1, Version: 1, K: 4, Rewrites: []*rewritten{rw}},
		hotVLIndexMsg{Input: "S+E+7", Shard: 1, Version: 1, K: 4, T: tu},
		hotMigrateMsg{Input: "S+E+7", Version: 1, K: 4},
		hotHandoffMsg{Input: "S+E+7", Shard: 1, Version: 1, K: 4,
			Entries: []vqEntry{{Rw: rw, Times: []int64{5}}}, Tuples: nil},
	}
	for _, m := range msgs {
		s, ok := m.(chord.Sizer)
		if !ok {
			t.Fatalf("%T does not implement Sizer", m)
		}
		if size, _ := s.Size(nil); size <= 0 {
			t.Fatalf("%T reports size %d", m, size)
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
