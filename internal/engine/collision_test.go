package engine

import (
	"slices"
	"testing"

	"cqjoin/internal/id"
	"cqjoin/internal/relation"
)

// A value-level slot is keyed by its identifier, and an identifier is only
// what its input hashes to. Two inputs forced onto one identifier share a
// slot — two of one relation (S+E+7 and S+E+8), and two of different
// relations whose attributes share a name (Authors+Id+7 and Document+Id+7) —
// and a rewrite stored there must meet only the tuples of its own input: the
// collision costs a probe, never a wrong notification. Under SAI the slot
// holds rewrites and tuples both; under DAI-Q the tuples, which arriving
// rewrites probe. A two-way query's notification refuses a tuple of another
// relation again where it is projected (query.Query.AppendNotification), so
// without matchRewrite's value compare it is the pair of one relation that
// notifies wrongly.
func TestValueLevelCollisionCostsAProbe(t *testing.T) {
	collide := map[id.ID]id.ID{
		id.Hash("S+E+8"):         id.Hash("S+E+7"),
		id.Hash("Document+Id+7"): id.Hash("Authors+Id+7"),
	}
	defer func(identity func(id.ID) id.ID) { vlCollide = identity }(vlCollide)
	vlCollide = func(h id.ID) id.ID {
		if to, ok := collide[h]; ok {
			return to
		}
		return h
	}

	for _, alg := range []Algorithm{SAI, DAIQ} {
		t.Run(alg.String(), func(t *testing.T) {
			env := newTestEnv(t, 32, Config{Algorithm: alg, Strategy: StrategyLeft, Seed: 3})
			o := NewOracle()
			for i, sql := range []string{
				`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`,
				`SELECT D.Title, A.Id FROM Document AS D, Authors AS A WHERE D.AuthorId = A.Id`,
				`SELECT A.Id, D.Title FROM Authors AS A, Document AS D WHERE A.Id = D.Id`,
			} {
				o.AddQuery(env.subscribe(t, i, sql))
			}
			doc := func(id, author float64) *relation.Tuple {
				return relation.MustTuple(env.doc, relation.N(id), relation.N(100+id), relation.S("icde"), relation.N(author))
			}
			author := func(id float64) *relation.Tuple {
				return relation.MustTuple(env.authors, relation.N(id), relation.N(200+id), relation.S("x"))
			}
			for i, tu := range []*relation.Tuple{
				sTuple(env, 2, 8, 0), rTuple(env, 1, 7, 0), rTuple(env, 3, 8, 0), sTuple(env, 4, 7, 0),
				author(7), doc(7, 9), doc(8, 7), author(9), doc(9, 7),
			} {
				o.AddTuple(env.publish(t, i, tu))
			}
			assertSetsEqual(t, alg, o.ExpectedContentKeys(), gotContents(env))

			// The inputs did share their slots.
			shared := func(input, rel, attr string, v float64) bool {
				for _, st := range env.eng.states {
					if tb := st.vlSlotOf(input).t; tb != nil && slices.ContainsFunc(tb.tuples.all(), func(tu *relation.Tuple) bool {
						return tu.Relation() == rel && tu.MustValue(attr) == relation.N(v)
					}) {
						return true
					}
				}
				return false
			}
			if !shared("S+E+7", "S", "E", 8) || !shared("Authors+Id+7", "Document", "Id", 7) {
				t.Fatal("the forced inputs do not share a slot: the test is vacuous")
			}
		})
	}
}
