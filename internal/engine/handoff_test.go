package engine

import (
	"fmt"
	"reflect"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/wire"
)

// A hand-off strips every node's tables into wire sections and the receiver
// rebuilds them through the table types' merge path. Run once with the hot
// value's buckets small enough to be scanned and once with them indexed: in
// both, state that went over the wire and came back — delivered twice, as a
// retried hand-off is — must weigh what it did and answer later tuples as an
// engine that never moved.
func TestHandoffAcrossTableThreshold(t *testing.T) {
	for _, n := range []int{smallTableMax / 2, 3 * smallTableMax} {
		t.Run(fmt.Sprintf("%d per bucket", n), func(t *testing.T) {
			build := func() *testEnv {
				env := newTestEnv(t, 32, Config{Algorithm: SAI, Seed: 3})
				for i := 0; i < 2; i++ {
					env.subscribe(t, i, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
				}
				publishHotPair(t, env, n, n)
				return env
			}
			control, moved := build(), build()
			if got := largestTupleTable(moved); got != n {
				t.Fatalf("fullest tuple bucket holds %d, want %d", got, n)
			}
			before := moved.eng.StorageLoads()

			type parcel struct {
				node *chord.Node
				msg  chord.Message
			}
			var parcels []parcel
			for _, node := range moved.nodes {
				msg, ok := moved.eng.ExportHandoff(node)
				if !ok {
					continue
				}
				var w wire.Buffer
				if err := EncodeMessage(&w, msg); err != nil {
					t.Fatal(err)
				}
				if s, _ := msg.(chord.Sizer).Size(nil); s != w.Len() {
					t.Fatalf("hand-off of %s: Size()=%d, encoding=%d", node, s, w.Len())
				}
				decoded, err := DecodeMessage(wire.NewReader(w.Bytes()), moved.catalog)
				if err != nil {
					t.Fatal(err)
				}
				parcels = append(parcels, parcel{node, decoded})
			}
			if got := sum(moved.eng.StorageLoads()); got != 0 {
				t.Fatalf("storage load %d after exporting every node, want 0", got)
			}
			for round := 0; round < 2; round++ {
				for _, p := range parcels {
					moved.eng.state(p.node).HandleMessage(p.node, p.msg)
				}
				if got := moved.eng.StorageLoads(); !reflect.DeepEqual(got, before) {
					t.Fatalf("delivery %d: storage loads\n%v\nbefore the hand-off\n%v", round+1, got, before)
				}
			}
			if got := largestTupleTable(moved); got != n {
				t.Fatalf("fullest tuple bucket holds %d after the hand-off, want %d", got, n)
			}
			for _, env := range []*testEnv{control, moved} {
				env.publish(t, 5, sTuple(env, 900, 7, 900))
				env.publish(t, 6, rTuple(env, 901, 7, 901))
			}
			if got, want := contentKeys(moved.eng.Notifications()), contentKeys(control.eng.Notifications()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d notifications after the hand-off, %d on the engine that never moved", len(got), len(want))
			}
		})
	}
}
