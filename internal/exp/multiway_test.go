package exp

import (
	"maps"
	"testing"

	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// chainOracle joins the published stream by nested loops, one chain query
// at a time, and counts the satisfying combinations per notification
// content key: a continuous join fires once per combination, also when
// several combinations project to the same values.
func chainOracle(t *testing.T, queries []*query.Query, tuples []*relation.Tuple) map[string]int {
	t.Helper()
	pools := make(map[string][]*relation.Tuple)
	for _, tu := range tuples {
		pools[tu.Relation()] = append(pools[tu.Relation()], tu)
	}
	want := make(map[string]int)
	for _, mq := range queries {
		rels, links := mq.Rels(), mq.Links()
		admissible := func(tu *relation.Tuple) bool {
			ok, err := mq.FiltersPass(tu)
			return err == nil && ok && tu.PubT() >= mq.InsT()
		}
		var combos [][]*relation.Tuple
		for _, t0 := range pools[rels[0].Name()] {
			if admissible(t0) {
				combos = append(combos, []*relation.Tuple{t0})
			}
		}
		for stage := 1; stage < len(rels); stage++ {
			var next [][]*relation.Tuple
			for _, c := range combos {
				lv, err := links[stage-1].L.Eval(c[stage-1])
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				for _, tu := range pools[rels[stage].Name()] {
					rv, err := links[stage-1].R.Eval(tu)
					if err != nil {
						t.Fatalf("oracle: %v", err)
					}
					if admissible(tu) && lv.Equal(rv) {
						next = append(next, append(c[:stage:stage], tu))
					}
				}
			}
			combos = next
		}
		for _, c := range combos {
			vals, err := mq.ProjectNotification(c...)
			if err != nil {
				t.Fatalf("oracle projection: %v", err)
			}
			key := mq.Key()
			for _, v := range vals {
				key += "|" + v.Canon()
			}
			want[key]++
		}
	}
	return want
}

// TestX71Oracle replays X7.1's stream at CI scale and holds the engine's
// notifications to a brute-force join: it is what says the "notifications"
// column of testdata/ci.golden is right. A chain (k > 2) fires once per
// satisfying combination, multiplicities included. Two relations are the
// paper's two-way query and are held to what every two-way query is held to
// (engine.Oracle): the set of distinct contents, both ways, and no delivered
// identity the oracle does not derive. SAI merges rewrites that tuples with
// equal index values create (Section 4.3.3), so it may deliver fewer.
func TestX71Oracle(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	for _, k := range []int{2, 3, 4} {
		r := chainSetup(CI())
		r.Eng.OnNotify(nil) // keep every notification for the oracles
		queries, tuples := chainRun(r, CI(), k)
		if k == 2 {
			o := engine.NewOracle()
			for _, q := range queries {
				o.AddQuery(q)
			}
			for _, tu := range tuples {
				o.AddTuple(tu)
			}
			identities := o.ExpectedDeliveries()
			for key := range engine.DeliveryKeys(r.Eng.Notifications()) {
				if !identities[key] {
					t.Fatalf("k=2: delivered %s, which the oracle does not derive", key)
				}
			}
			want, got := o.ExpectedContentKeys(), map[string]bool{}
			for _, key := range r.Eng.DeliveredContentKeys() {
				got[key] = true
			}
			if len(want) == 0 || !maps.Equal(want, got) {
				t.Fatalf("k=2: delivered %d distinct contents, the oracle derives %d", len(got), len(want))
			}
			continue
		}
		owed := chainOracle(t, queries, tuples)
		for _, n := range r.Eng.Notifications() {
			owed[n.ContentKey()]--
		}
		for key, n := range owed {
			if n != 0 {
				t.Fatalf("k=%d: %s: %d satisfying combinations not delivered (negative: delivered without one)", k, key, n)
			}
		}
	}
}
