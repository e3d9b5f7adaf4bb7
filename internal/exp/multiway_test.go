package exp

import (
	"testing"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// chainOracle joins the published stream by nested loops, one chain query
// at a time, and counts the satisfying combinations per notification
// content key: a continuous join fires once per combination, also when
// several combinations project to the same values.
func chainOracle(t *testing.T, queries []*query.MultiQuery, tuples []*relation.Tuple) map[string]int {
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
			vals, err := mq.ProjectNotification(c)
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
// notifications to the brute-force join, multiplicities included: it is
// what says the "notifications" column of testdata/ci.golden is right.
func TestX71Oracle(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	for _, k := range []int{2, 3, 4} {
		r, queries, tuples := chainRun(CI(), k)
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
