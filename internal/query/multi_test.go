package query

import (
	"strings"
	"testing"

	"cqjoin/internal/relation"
)

func multiCatalog() *relation.Catalog {
	return relation.MustCatalog(
		relation.MustSchema("A", "x", "y", "z"),
		relation.MustSchema("B", "x", "y", "z"),
		relation.MustSchema("C", "x", "y", "z"),
		relation.MustSchema("D", "x", "y", "z"),
	)
}

func TestParseMultiThreeWayChain(t *testing.T) {
	mq, err := Parse(multiCatalog(), `
		SELECT A.z, B.z, C.z FROM A, B, C
		WHERE A.x = B.y AND B.x = C.y AND C.z >= 1`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if mq.Arity() != 3 {
		t.Fatalf("arity = %d", mq.Arity())
	}
	rels := mq.Rels()
	// Canonical orientation starts at the lexicographically smaller
	// endpoint (A).
	if rels[0].Name() != "A" || rels[1].Name() != "B" || rels[2].Name() != "C" {
		t.Fatalf("pipeline order: %v %v %v", rels[0].Name(), rels[1].Name(), rels[2].Name())
	}
	if len(mq.Links()) != 2 {
		t.Fatalf("links = %d", len(mq.Links()))
	}
	if len(mq.Filters()) != 1 {
		t.Fatalf("filters = %d", len(mq.Filters()))
	}
}

func TestParseMultiUnorderedConditions(t *testing.T) {
	// Conditions given out of chain order must still resolve.
	mq, err := Parse(multiCatalog(), `
		SELECT A.z FROM C, A, B WHERE B.x = C.y AND A.x = B.y`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rels := mq.Rels()
	if rels[0].Name() != "A" || rels[2].Name() != "C" {
		t.Fatalf("pipeline order wrong: %s..%s", rels[0].Name(), rels[2].Name())
	}
}

// A chain of two relations is the paper's two-way query: its one link is
// the join condition α = β as written, whichever relation sorts first.
func TestParseMultiTwoWayCompatible(t *testing.T) {
	for _, c := range []struct{ sql, cond, left string }{
		{`SELECT A.z, B.z FROM A, B WHERE A.x = B.y`, "A.x = B.y", "A"},
		{`SELECT A.z, B.z FROM A, B WHERE B.y = A.x`, "B.y = A.x", "B"},
	} {
		q, err := Parse(multiCatalog(), c.sql)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		if q.Arity() != 2 || len(q.Links()) != 1 {
			t.Fatalf("%s: %d rels %d links", c.sql, q.Arity(), len(q.Links()))
		}
		if q.ConditionKey() != c.cond || q.Rel(SideLeft).Name() != c.left || q.Type() != T1 || q.Tokens() == nil {
			t.Fatalf("%s: condition %q, left %s, %s, tokens %v", c.sql, q.ConditionKey(), q.Rel(SideLeft).Name(), q.Type(), q.Tokens())
		}
		if l := q.Links()[0]; l.L.String() != q.Expr(SideLeft).String() || l.R.String() != q.Expr(SideRight).String() {
			t.Fatalf("%s: link %s = %s is not the join condition", c.sql, l.L, l.R)
		}
	}
}

func TestParseMultiErrors(t *testing.T) {
	cat := multiCatalog()
	cases := []struct{ name, sql, want string }{
		{"too few conditions", `SELECT A.z FROM A, B, C WHERE A.x = B.y`, "exactly 2 join conditions"},
		{"too many conditions", `SELECT A.z FROM A, B WHERE A.x = B.y AND A.y = B.x`, "exactly 1 join conditions"},
		{"star not chain", `SELECT A.z FROM A, B, C, D WHERE A.x = B.y AND A.y = C.y AND A.z = D.y`, "only chains"},
		{"disconnected", `SELECT A.z FROM A, B, C, D WHERE A.x = B.y AND C.x = D.y AND A.y = B.x`, ""},
		{"T2 link", `SELECT A.z FROM A, B, C WHERE A.x + A.y = B.y AND B.x = C.y`, "not invertible"},
		{"self join", `SELECT a1.z FROM A AS a1, A AS a2 WHERE a1.x = a2.y`, "self-join"},
		{"one relation", `SELECT A.z FROM A WHERE A.x = 1`, "at least two"},
		{"non-equality link", `SELECT A.z FROM A, B, C WHERE A.x < B.y AND B.x = C.y`, "equality"},
		{"bad select", `SELECT Z.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`, "unknown alias"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(cat, c.sql)
			if err == nil {
				t.Fatalf("accepted %q", c.sql)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestMultiIdentityAndTimes(t *testing.T) {
	mq := MustParse(multiCatalog(), `SELECT A.z FROM A, B WHERE A.x = B.y`)
	mq2 := mq.WithIdentity("n1", "ip1", 7).WithInsT(42)
	if mq2.Key() != "n1#7" || mq2.Subscriber() != "n1" || mq2.SubscriberIP() != "ip1" || mq2.InsT() != 42 {
		t.Fatalf("identity: %q %q %q %d", mq2.Key(), mq2.Subscriber(), mq2.SubscriberIP(), mq2.InsT())
	}
	if mq.Key() != "" {
		t.Fatal("WithIdentity mutated the original")
	}
}

// A rewrite indexed under the chain's last relation walks it backwards:
// each link is solved for the relation before it.
func TestMultiReverse(t *testing.T) {
	mq := MustParse(multiCatalog(), `SELECT A.z FROM A, B, C WHERE A.x = B.y AND B.x = 2 * C.y`)
	c := relation.MustSchema("C", "x", "y", "z")
	tc := relation.MustTuple(c, relation.N(0), relation.N(3), relation.N(0))
	want, val, err := mq.StageWant(SideRight, 1, tc)
	if err != nil || *want != (relation.AttrRef{Rel: "B", Attr: "x"}) || !val.Equal(relation.N(6)) {
		t.Fatalf("stage 1 from C wants %v = %v (%v), want B.x = 6", want, val, err)
	}
	b := relation.MustSchema("B", "x", "y", "z")
	tb := relation.MustTuple(b, relation.N(6), relation.N(4), relation.N(0))
	if want, val, err = mq.StageWant(SideRight, 2, tb); err != nil || *want != (relation.AttrRef{Rel: "A", Attr: "x"}) || !val.Equal(relation.N(4)) {
		t.Fatalf("stage 2 from C wants %v = %v (%v), want A.x = 4", want, val, err)
	}
	if got := mq.StageProjection(SideRight, 3); got.Name() != "A" {
		t.Fatalf("stage 3 from C matches %s, want A", got.Name())
	}
	if _, ok := mq.StageAttr(SideRight, 3); ok {
		t.Fatal("a chain of three went on past its third stage")
	}
}

func TestMultiStageWant(t *testing.T) {
	catalog := multiCatalog()
	mq := MustParse(catalog, `SELECT A.z FROM A, B, C WHERE 2 * A.x = B.y AND B.x = C.y + 1`)
	a := relation.MustSchema("A", "x", "y", "z")
	ta := relation.MustTuple(a, relation.N(3), relation.N(0), relation.N(0))
	want, val, err := mq.StageWant(SideLeft, 1, ta)
	if err != nil {
		t.Fatalf("StageWant: %v", err)
	}
	// 2*A.x = 6 → B.y must be 6.
	if *want != (relation.AttrRef{Rel: "B", Attr: "y"}) || !val.Equal(relation.N(6)) {
		t.Fatalf("stage 1 want: %v = %v", want, val)
	}
	// A copy of the query, and another query waiting for B.y, share the
	// schema's one AttrRef for it.
	if again, ok := mq.WithInsT(7).StageAttr(SideLeft, 1); !ok || again != want {
		t.Fatalf("a copy's stage 1 want is %p, the query's %p", again, want)
	}
	other := MustParse(catalog, `SELECT A.z FROM A, B WHERE A.x = B.y`)
	if again, ok := other.StageAttr(SideLeft, 1); !ok || again != want {
		t.Fatalf("another query's want of B.y is %p, this one's %p", again, want)
	}
	b := relation.MustSchema("B", "x", "y", "z")
	tb := relation.MustTuple(b, relation.N(5), relation.N(6), relation.N(0))
	want, val, err = mq.StageWant(SideLeft, 2, tb)
	if err != nil {
		t.Fatalf("StageWant: %v", err)
	}
	// B.x = 5 → C.y + 1 = 5 → C.y = 4.
	if *want != (relation.AttrRef{Rel: "C", Attr: "y"}) || !val.Equal(relation.N(4)) {
		t.Fatalf("stage 2 want: %v = %v", want, val)
	}
	if _, _, err := mq.StageWant(SideLeft, 3, tb); err == nil {
		t.Fatal("stage out of range accepted")
	}
}

func TestMultiIndexAttr(t *testing.T) {
	mq := MustParse(multiCatalog(), `SELECT A.z FROM A, B WHERE 2 * A.x = B.y`)
	attr, err := mq.SingleAttr(SideLeft)
	if err != nil || attr != "x" {
		t.Fatalf("SingleAttr(SideLeft) = %q, %v", attr, err)
	}
}

func TestMultiNeededAttrsAndProjection(t *testing.T) {
	mq := MustParse(multiCatalog(), `
		SELECT A.z, C.z FROM A, B, C
		WHERE A.x = B.y AND B.x = C.y AND B.z >= 1`)
	if got := mq.NeededAttrs("B"); len(got) != 3 { // y, x, z
		t.Fatalf("B needed = %v", got)
	}
	if got := mq.NeededAttrs("A"); len(got) != 2 { // z, x
		t.Fatalf("A needed = %v", got)
	}
	a := relation.MustSchema("A", "x", "y", "z")
	b := relation.MustSchema("B", "x", "y", "z")
	c := relation.MustSchema("C", "x", "y", "z")
	combo := []*relation.Tuple{
		relation.MustTuple(a, relation.N(1), relation.N(0), relation.N(10)),
		relation.MustTuple(b, relation.N(2), relation.N(1), relation.N(20)),
		relation.MustTuple(c, relation.N(3), relation.N(2), relation.N(30)),
	}
	vals, err := mq.ProjectNotification(combo...)
	if err != nil {
		t.Fatalf("ProjectNotification: %v", err)
	}
	if len(vals) != 2 || !vals[0].Equal(relation.N(10)) || !vals[1].Equal(relation.N(30)) {
		t.Fatalf("projection = %v", vals)
	}
	if _, err := mq.ProjectNotification(combo[:2]...); err == nil {
		t.Fatal("short combination accepted")
	}
}

func TestMultiFiltersPass(t *testing.T) {
	mq := MustParse(multiCatalog(), `SELECT A.z FROM A, B WHERE A.x = B.y AND B.z >= 5`)
	b := relation.MustSchema("B", "x", "y", "z")
	pass := relation.MustTuple(b, relation.N(0), relation.N(0), relation.N(9))
	fail := relation.MustTuple(b, relation.N(0), relation.N(0), relation.N(1))
	if ok, _ := mq.FiltersPass(pass); !ok {
		t.Fatal("passing tuple rejected")
	}
	if ok, _ := mq.FiltersPass(fail); ok {
		t.Fatal("failing tuple accepted")
	}
}

func TestMultiConditionKeyAndString(t *testing.T) {
	sql := `SELECT A.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`
	mq := MustParse(multiCatalog(), sql)
	if !strings.Contains(mq.ConditionKey(), "A.x = B.y") {
		t.Fatalf("condition key = %q", mq.ConditionKey())
	}
	if mq.String() != sql {
		t.Fatalf("String = %q", mq.String())
	}
}
