package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// testEnv bundles an overlay, catalog and engine for the canonical
// R(A,B,C) ⋈ S(D,E,F) workload plus the thesis e-learning schema.
type testEnv struct {
	net     *chord.Network
	eng     *Engine
	catalog *relation.Catalog
	r, s    *relation.Schema
	doc     *relation.Schema
	authors *relation.Schema
	nodes   []*chord.Node
}

// contentKey is tu's identity as the tuple stores absorb duplicates by it.
func contentKey(tu *relation.Tuple) string { return string(tu.AppendContentKey(nil)) }

func newTestEnv(t testing.TB, nNodes int, cfg Config) *testEnv {
	t.Helper()
	r := relation.MustSchema("R", "A", "B", "C")
	s := relation.MustSchema("S", "D", "E", "F")
	doc := relation.MustSchema("Document", "Id", "Title", "Conference", "AuthorId")
	authors := relation.MustSchema("Authors", "Id", "Name", "Surname")
	catalog := relation.MustCatalog(r, s, doc, authors)

	net := chord.New(chord.Config{})
	net.AddNodes("peer", nNodes)
	eng := New(net, catalog, cfg)
	return &testEnv{net: net, eng: eng, catalog: catalog, r: r, s: s, doc: doc, authors: authors, nodes: net.Nodes()}
}

func (env *testEnv) node(i int) *chord.Node { return env.nodes[i%len(env.nodes)] }

func (env *testEnv) subscribe(t testing.TB, nodeIdx int, sql string) *query.Query {
	t.Helper()
	q, err := env.eng.Subscribe(env.node(nodeIdx), query.MustParse(env.catalog, sql))
	if err != nil {
		t.Fatalf("Subscribe(%q): %v", sql, err)
	}
	return q
}

func (env *testEnv) publish(t testing.TB, nodeIdx int, tuple *relation.Tuple) *relation.Tuple {
	t.Helper()
	tt, err := env.eng.Publish(env.node(nodeIdx), tuple)
	if err != nil {
		t.Fatalf("Publish(%s): %v", tuple, err)
	}
	return tt
}

func rTuple(env *testEnv, a, b, c float64) *relation.Tuple {
	return relation.MustTuple(env.r, relation.N(a), relation.N(b), relation.N(c))
}

func sTuple(env *testEnv, d, e, f float64) *relation.Tuple {
	return relation.MustTuple(env.s, relation.N(d), relation.N(e), relation.N(f))
}

func contentKeys(ns []Notification) []string {
	keys := make([]string, len(ns))
	for i, n := range ns {
		keys[i] = n.ContentKey()
	}
	sort.Strings(keys)
	return keys
}

func algorithms() []Algorithm {
	return []Algorithm{SAI, DAIQ, DAIT, DAIV}
}

// --- Basic two-phase evaluation, all algorithms -------------------------

func TestNotificationTupleAfterQuery(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			env := newTestEnv(t, 32, Config{Algorithm: alg})
			q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
			env.publish(t, 1, rTuple(env, 1, 7, 0))
			env.publish(t, 2, sTuple(env, 2, 7, 0))
			got := env.eng.Notifications()
			if len(got) != 1 {
				t.Fatalf("%d notifications, want 1: %v", len(got), got)
			}
			n := got[0]
			if n.QueryKey != q.Key() || n.Subscriber != env.node(0).Key() {
				t.Fatalf("notification identity wrong: %+v", n)
			}
			if len(n.Values) != 2 || !n.Values[0].Equal(relation.N(1)) || !n.Values[1].Equal(relation.N(2)) {
				t.Fatalf("notification values wrong: %v", n.Values)
			}
			if n.LeftPubT == 0 || n.RightPubT == 0 || n.LeftPubT >= n.RightPubT {
				t.Fatalf("pub times wrong: %d, %d", n.LeftPubT, n.RightPubT)
			}
		})
	}
}

func TestNotificationBothOrders(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			env := newTestEnv(t, 32, Config{Algorithm: alg})
			env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
			// S tuple first, then R: the rewritten query must find the
			// stored tuple (completeness, Section 4.3.4).
			env.publish(t, 1, sTuple(env, 2, 7, 0))
			env.publish(t, 2, rTuple(env, 1, 7, 0))
			if got := env.eng.Notifications(); len(got) != 1 {
				t.Fatalf("%d notifications, want 1", len(got))
			}
		})
	}
}

func TestNoMatchNoNotification(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			env := newTestEnv(t, 32, Config{Algorithm: alg})
			env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
			env.publish(t, 1, rTuple(env, 1, 7, 0))
			env.publish(t, 2, sTuple(env, 2, 8, 0)) // 7 != 8
			if got := env.eng.Notifications(); len(got) != 0 {
				t.Fatalf("unexpected notifications: %v", got)
			}
		})
	}
}

// Section 3.2: only tuples inserted after a query was posed can trigger it.
func TestTimeSemantics(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			env := newTestEnv(t, 32, Config{Algorithm: alg})
			env.publish(t, 1, rTuple(env, 1, 7, 0)) // before the query
			env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
			env.publish(t, 2, sTuple(env, 2, 7, 0)) // after: has no partner
			if got := env.eng.Notifications(); len(got) != 0 {
				t.Fatalf("pre-insertion tuple triggered: %v", got)
			}
			// A fresh pair after the query still works.
			env.publish(t, 3, rTuple(env, 5, 9, 0))
			env.publish(t, 4, sTuple(env, 6, 9, 0))
			if got := env.eng.Notifications(); len(got) != 1 {
				t.Fatalf("%d notifications, want 1", len(got))
			}
		})
	}
}

func TestSelectionPredicateFiltersBothSides(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			env := newTestEnv(t, 32, Config{Algorithm: alg})
			env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND S.F = 1 AND R.C = 2`)
			env.publish(t, 1, rTuple(env, 1, 7, 2))  // passes R.C = 2
			env.publish(t, 2, sTuple(env, 2, 7, 0))  // fails S.F = 1
			env.publish(t, 3, sTuple(env, 3, 7, 1))  // passes
			env.publish(t, 4, rTuple(env, 4, 7, 99)) // fails R.C = 2
			got := env.eng.Notifications()
			if len(got) != 1 {
				t.Fatalf("%d notifications, want 1: %v", len(got), got)
			}
			if !got[0].Values[1].Equal(relation.N(3)) {
				t.Fatalf("matched wrong S tuple: %v", got[0].Values)
			}
		})
	}
}

// The thesis Section 3.2 end-to-end example.
func TestELearningExample(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI})
	env.subscribe(t, 0, `
		SELECT D.Title, D.Conference
		FROM Document AS D, Authors AS A
		WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'`)
	env.publish(t, 1, relation.MustTuple(env.authors, relation.N(17), relation.S("John"), relation.S("Smith")))
	env.publish(t, 2, relation.MustTuple(env.authors, relation.N(18), relation.S("Ann"), relation.S("Jones")))
	env.publish(t, 3, relation.MustTuple(env.doc, relation.N(1), relation.S("P2P Joins"), relation.S("ICDE"), relation.N(17)))
	env.publish(t, 4, relation.MustTuple(env.doc, relation.N(2), relation.S("Other"), relation.S("VLDB"), relation.N(18)))
	got := env.eng.Notifications()
	if len(got) != 1 {
		t.Fatalf("%d notifications, want 1: %v", len(got), got)
	}
	if !got[0].Values[0].Equal(relation.S("P2P Joins")) || !got[0].Values[1].Equal(relation.S("ICDE")) {
		t.Fatalf("wrong paper notified: %v", got[0].Values)
	}
}

// --- Cross-algorithm equivalence ----------------------------------------

// All algorithms must deliver the same set of distinct notification
// contents on a random workload — the correctness invariant behind the
// duplicate-avoidance discussion of Section 4.4.
func TestAlgorithmsAgreeOnRandomWorkload(t *testing.T) {
	type run struct {
		alg  Algorithm
		keys []string
	}
	var runs []run
	for _, alg := range algorithms() {
		env := newTestEnv(t, 48, Config{Algorithm: alg, Seed: 42})
		rng := rand.New(rand.NewSource(7))
		// A mix of queries over a small value domain to force matches,
		// interleaved with tuples.
		for i := 0; i < 8; i++ {
			env.subscribe(t, i, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
			env.subscribe(t, i+8, fmt.Sprintf(
				`SELECT R.A FROM R, S WHERE R.C = S.F AND S.D > %d`, rng.Intn(3)))
		}
		for i := 0; i < 60; i++ {
			if rng.Intn(2) == 0 {
				env.publish(t, rng.Intn(48), rTuple(env, float64(rng.Intn(5)), float64(rng.Intn(4)), float64(rng.Intn(4))))
			} else {
				env.publish(t, rng.Intn(48), sTuple(env, float64(rng.Intn(5)), float64(rng.Intn(4)), float64(rng.Intn(4))))
			}
		}
		keys := contentKeys(env.eng.Notifications())
		keys = dedup(keys)
		if len(keys) == 0 {
			t.Fatalf("%s: workload produced no notifications; test is vacuous", alg)
		}
		runs = append(runs, run{alg, keys})
	}
	base := runs[0]
	for _, r := range runs[1:] {
		if !equalStrings(base.keys, r.keys) {
			t.Fatalf("%s and %s disagree:\n%s: %d keys\n%s: %d keys\ndiff: %v",
				base.alg, r.alg, base.alg, len(base.keys), r.alg, len(r.keys),
				diffStrings(base.keys, r.keys))
		}
	}
}

// The four main algorithms must not deliver duplicate notifications for
// the T1 workload (Figure 4.3's trap).
func TestNoDuplicateNotifications(t *testing.T) {
	for _, alg := range []Algorithm{SAI, DAIQ, DAIT, DAIV} {
		t.Run(alg.String(), func(t *testing.T) {
			env := newTestEnv(t, 48, Config{Algorithm: alg, Seed: 1})
			env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
			env.publish(t, 1, rTuple(env, 1, 7, 0))
			env.publish(t, 2, sTuple(env, 2, 7, 0))
			env.publish(t, 3, sTuple(env, 3, 7, 0))
			env.publish(t, 4, rTuple(env, 4, 7, 0))
			got := env.eng.Notifications()
			// Pairs: (1,2), (1,3), (4,2), (4,3) — all with distinct
			// contents.
			if len(got) != 4 {
				t.Fatalf("%d notifications, want 4: %v", len(got), got)
			}
			keys := contentKeys(got)
			if len(dedup(keys)) != 4 {
				t.Fatalf("duplicate notification contents: %v", keys)
			}
		})
	}
}

// --- DAI-V and type-T2 queries ------------------------------------------

func TestT2QueryOnlyDAIV(t *testing.T) {
	sql := `SELECT R.A, S.D FROM R, S WHERE 4 * R.B + R.C + 8 = 5 * S.E + S.D - S.F`
	for _, alg := range []Algorithm{SAI, DAIQ, DAIT} {
		env := newTestEnv(t, 16, Config{Algorithm: alg})
		if _, err := env.eng.Subscribe(env.node(0), query.MustParse(env.catalog, sql)); err == nil {
			t.Fatalf("%s accepted a T2 query", alg)
		}
	}

	env := newTestEnv(t, 32, Config{Algorithm: DAIV})
	env.subscribe(t, 0, sql)
	// Section 4.5's example: R(B=4, C=9) gives 4*4+9+8 = 33.
	env.publish(t, 1, rTuple(env, 1, 4, 9))
	// Right side: 5*E + D - F = 33 with E=6, D=4, F=1.
	env.publish(t, 2, sTuple(env, 4, 6, 1))
	got := env.eng.Notifications()
	if len(got) != 1 {
		t.Fatalf("%d notifications, want 1: %v", len(got), got)
	}
	if !got[0].Values[0].Equal(relation.N(1)) || !got[0].Values[1].Equal(relation.N(4)) {
		t.Fatalf("values = %v", got[0].Values)
	}
}

// Two queries with different conditions can map tuples to the same DAI-V
// evaluator (same valJC); their stores must stay separate per condition.
func TestDAIVValueCollisionAcrossConditions(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: DAIV, Seed: 4})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.subscribe(t, 1, `SELECT R.A, S.D FROM R, S WHERE R.C = S.F`)
	// Both conditions take the value 7: identical evaluator identifier.
	env.publish(t, 2, rTuple(env, 1, 7, 99)) // matches cond 1 only (B=7)
	env.publish(t, 3, sTuple(env, 2, 7, 7))  // E=7 matches cond 1; F=7 waits on cond 2
	got := env.eng.Notifications()
	if len(got) != 1 {
		t.Fatalf("%d notifications, want 1 (cross-condition leak?): %v", len(got), got)
	}
	if !got[0].Values[0].Equal(relation.N(1)) || !got[0].Values[1].Equal(relation.N(2)) {
		t.Fatalf("values = %v", got[0].Values)
	}
	// Now complete condition 2 with R.C = 7.
	env.publish(t, 4, rTuple(env, 5, 0, 7))
	got = env.eng.Notifications()
	if len(got) != 2 {
		t.Fatalf("%d notifications after cond-2 match, want 2: %v", len(got), got)
	}
}

func TestT2NonMatchingValues(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: DAIV})
	env.subscribe(t, 0, `SELECT R.A FROM R, S WHERE R.B + R.C = S.E * S.F`)
	env.publish(t, 1, rTuple(env, 1, 2, 3)) // 5
	env.publish(t, 2, sTuple(env, 0, 2, 3)) // 6
	if got := env.eng.Notifications(); len(got) != 0 {
		t.Fatalf("unexpected notifications: %v", got)
	}
	env.publish(t, 3, sTuple(env, 0, 1, 5)) // 5: match
	if got := env.eng.Notifications(); len(got) != 1 {
		t.Fatalf("%d notifications, want 1", len(got))
	}
}

// Linear T1 sides must also work through rewriting (valDA inversion).
func TestLinearJoinConditionRewrite(t *testing.T) {
	for _, alg := range []Algorithm{SAI, DAIQ, DAIT, DAIV} {
		t.Run(alg.String(), func(t *testing.T) {
			env := newTestEnv(t, 32, Config{Algorithm: alg})
			env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE 2 * R.B = S.E + 4`)
			env.publish(t, 1, rTuple(env, 1, 5, 0)) // 2*5 = 10
			env.publish(t, 2, sTuple(env, 2, 6, 0)) // 6+4 = 10: match
			env.publish(t, 3, sTuple(env, 3, 5, 0)) // 9: no match
			got := env.eng.Notifications()
			if len(got) != 1 {
				t.Fatalf("%d notifications, want 1: %v", len(got), got)
			}
		})
	}
}

// --- helpers -------------------------------------------------------------

func dedup(sorted []string) []string {
	var out []string
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func diffStrings(a, b []string) []string {
	in := make(map[string]int)
	for _, s := range a {
		in[s]++
	}
	for _, s := range b {
		in[s]--
	}
	var out []string
	for s, c := range in {
		if c != 0 {
			out = append(out, fmt.Sprintf("%+d %s", c, s))
		}
	}
	sort.Strings(out)
	return out
}
