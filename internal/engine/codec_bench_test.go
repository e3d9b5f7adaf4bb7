package engine

import (
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// BenchmarkCodec times Size, Encode (into a grown buffer) and a warm-memo
// Decode of the five message kinds a publication moves: the shapes are
// TestWarmDecodeAllocCeilings' — four subscribers of one join, so a join
// carries four rewrites sharing a target and a batch four notifications.
func BenchmarkCodec(b *testing.B) {
	env := newTestEnv(b, 16, Config{Algorithm: SAI})
	tu := rTuple(env, 1, 7, 2).WithPubT(9)
	su := sTuple(env, 3, 7, 1).WithPubT(11)
	var rws []rewritten
	var notifs []Notification
	var target *rewriteTarget
	for i := 0; i < 4; i++ {
		q := env.subscribe(b, i, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		if target == nil {
			proj, err := tu.ProjectOnto(q.Projection(query.SideLeft))
			if err != nil {
				b.Fatal(err)
			}
			target = &rewriteTarget{IndexSide: query.SideLeft, Trigger: proj, Want: &relation.AttrRef{Rel: "S", Attr: "E"}, WantValue: relation.N(7)}
		}
		rws = append(rws, *spelled(q.Key()+"+9", q, target))
		n, err := buildNotification(q, query.SideLeft, target.Trigger, su)
		if err != nil {
			b.Fatal(err)
		}
		notifs = append(notifs, n)
	}
	codec := NewWireCodec(env.catalog)
	for _, tc := range []struct {
		name string
		msg  chord.Message
	}{
		{"al-index", &alIndexMsg{vlIndexMsg: vlIndexMsg{T: tu, Attr: "B"}, Replica: 1}},
		{"vl-index", &vlIndexMsg{T: su, Attr: "E"}},
		{"join", &joinMsg{Rewrites: rws}},
		{"notification", &notifyMsg{Subscriber: notifs[0].Subscriber, Batch: notifs}},
		{"hot-join", hotJoinMsg{Input: "S+E+7", Shard: 2, Rewrites: rws}},
	} {
		var w wire.Buffer
		if err := codec.Encode(&w, tc.msg); err != nil {
			b.Fatal(err)
		}
		b.Run("size/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if codec.SizeAfter(tc.msg, nil) != w.Len() {
					b.Fatal("size drifted from the encoding")
				}
			}
		})
		b.Run("encode/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var out wire.Buffer
			for i := 0; i < b.N; i++ {
				out.Reset()
				if err := codec.Encode(&out, tc.msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var r wire.Reader
			for i := 0; i < b.N; i++ {
				r.Reset(w.Bytes())
				if _, err := codec.Decode(&r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
