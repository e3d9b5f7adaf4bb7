package query

import (
	"strings"
	"testing"

	"cqjoin/internal/relation"
)

func testCatalog() *relation.Catalog {
	return relation.MustCatalog(
		relation.MustSchema("Document", "Id", "Title", "Conference", "AuthorId"),
		relation.MustSchema("Authors", "Id", "Name", "Surname"),
		relation.MustSchema("R", "A", "B", "C"),
		relation.MustSchema("S", "D", "E", "F"),
	)
}

// A relation a catalog accepts is one a query can name: the lexer reads
// UTF-8, so a name outside ASCII is one identifier, not a byte it refuses.
func TestNonASCIINamesParse(t *testing.T) {
	catalog := relation.MustCatalog(relation.MustSchema("Ré", "Prix", "Clé"), relation.MustSchema("S", "D", "E", "F"))
	q, err := Parse(catalog, `SELECT Ré.Prix, S.D FROM Ré, S WHERE Ré.Clé = S.E`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Rel(SideLeft).Name() != "Ré" || q.SideAttrs(SideLeft)[0] != "Clé" {
		t.Fatalf("parsed %s ⋈ %s on %v", q.Rel(SideLeft).Name(), q.Rel(SideRight).Name(), q.SideAttrs(SideLeft))
	}
	if text, err := AppendText(nil, catalog, q.Tokens()); err != nil || string(text) != q.Text() {
		t.Fatalf("the token form spells %q (%v)", text, err)
	}
}

func TestParseThesisExample(t *testing.T) {
	// The e-learning query of Section 3.2.
	q, err := Parse(testCatalog(), `
		Select D.Title, D.Conference
		From Document as D, Authors as A
		Where D.AuthorId = A.Id and A.Surname = 'Smith'`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Rel(SideLeft).Name() != "Document" || q.Rel(SideRight).Name() != "Authors" {
		t.Fatalf("relations: %s, %s", q.Rel(SideLeft), q.Rel(SideRight))
	}
	if got := q.ConditionKey(); got != "Document.AuthorId = Authors.Id" {
		t.Fatalf("condition = %q", got)
	}
	if q.Type() != T1 {
		t.Fatalf("type = %s, want T1", q.Type())
	}
	sel := q.Select()
	if len(sel) != 2 || sel[0].Name != "Title" || sel[1].Name != "Conference" {
		t.Fatalf("select = %v", sel)
	}
	fs := q.FiltersFor("Authors")
	if len(fs) != 1 || fs[0].Op != OpEq {
		t.Fatalf("filters = %v", fs)
	}
}

func TestParseT2Query(t *testing.T) {
	// The Section 4.5 example: 4*R.B + R.C + 8 = 5*S.E + S.D - S.F.
	q, err := Parse(testCatalog(), `
		SELECT R.A, S.D FROM R, S
		WHERE 4 * R.B + R.C + 8 = 5 * S.E + S.D - S.F`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Type() != T2 {
		t.Fatalf("type = %s, want T2", q.Type())
	}
	if got := q.SideAttrs(SideLeft); len(got) != 2 {
		t.Fatalf("left attrs = %v", got)
	}
	if got := q.SideAttrs(SideRight); len(got) != 3 {
		t.Fatalf("right attrs = %v", got)
	}
}

func TestParseLinearT1(t *testing.T) {
	q := MustParse(testCatalog(), `SELECT R.A FROM R, S WHERE 2 * R.B + 1 = S.E`)
	if q.Type() != T1 {
		t.Fatalf("linear invertible sides must be T1, got %s", q.Type())
	}
}

func TestParseAliasWithoutAS(t *testing.T) {
	q, err := Parse(testCatalog(), `SELECT D.Title FROM Document D, Authors A WHERE D.AuthorId = A.Id`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Rel(SideLeft).Name() != "Document" {
		t.Fatal("implicit alias broken")
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	q := MustParse(testCatalog(), `SELECT R.A FROM R, S WHERE R.B + 2 * R.C = S.E`)
	// Must parse as R.B + (2*R.C), not (R.B+2)*R.C.
	want := "(R.B + (2 * R.C))"
	if got := q.Expr(SideLeft).String(); got != want {
		t.Fatalf("precedence: %s, want %s", got, want)
	}
	q2 := MustParse(testCatalog(), `SELECT R.A FROM R, S WHERE (R.B + 2) * R.C = S.E`)
	if got := q2.Expr(SideLeft).String(); got != "((R.B + 2) * R.C)" {
		t.Fatalf("parens: %s", got)
	}
}

func TestParseUnaryMinus(t *testing.T) {
	q := MustParse(testCatalog(), `SELECT R.A FROM R, S WHERE -R.B = S.E`)
	if got := q.Expr(SideLeft).String(); got != "-R.B" {
		t.Fatalf("unary minus: %s", got)
	}
}

func TestParseDoubleQuotedString(t *testing.T) {
	q := MustParse(testCatalog(), `SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = "x y"`)
	fs := q.FiltersFor("S")
	if len(fs) != 1 {
		t.Fatalf("filters = %v", fs)
	}
}

func TestParseErrors(t *testing.T) {
	cat := testCatalog()
	cases := []struct {
		name, sql, wantErr string
	}{
		{"missing select", `FROM R, S WHERE R.A = S.D`, "expected SELECT"},
		{"unknown relation", `SELECT R.A FROM R, Z WHERE R.A = Z.X`, "unknown relation"},
		{"one relation", `SELECT R.A FROM R WHERE R.A = R.B`, "two FROM relations"},
		{"self join", `SELECT R.A FROM R AS x, R AS y WHERE x.A = y.B`, "self-join"},
		{"unknown alias", `SELECT Z.A FROM R, S WHERE R.A = S.D`, "unknown alias"},
		{"unknown attribute", `SELECT R.Z FROM R, S WHERE R.A = S.D`, "no attribute"},
		{"no join condition", `SELECT R.A FROM R, S WHERE R.A = 5`, "no join condition"},
		{"two join conditions", `SELECT R.A FROM R, S WHERE R.A = S.D AND R.B = S.E`, "exactly 1 join conditions"},
		{"non-equality join", `SELECT R.A FROM R, S WHERE R.A < S.D`, "must be an equality"},
		{"constant predicate", `SELECT R.A FROM R, S WHERE R.A = S.D AND 1 = 1`, "constant predicate"},
		{"unqualified attr", `SELECT A FROM R, S WHERE R.A = S.D`, "qualified"},
		{"trailing garbage", `SELECT R.A FROM R, S WHERE R.A = S.D garbage garbage`, ""},
		{"unterminated string", `SELECT R.A FROM R, S WHERE R.A = S.D AND S.E = 'oops`, "unterminated"},
		{"bad operator", `SELECT R.A FROM R, S WHERE R.A ! S.D`, "stray"},
		{"duplicate alias", `SELECT x.A FROM R AS x, S AS x WHERE x.A = x.D`, "duplicate alias"},
		{"empty select", `SELECT FROM R, S WHERE R.A = S.D`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(cat, c.sql)
			if err == nil {
				t.Fatalf("accepted %q", c.sql)
			}
			if c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestParsePredicateMixingRelationsRejected(t *testing.T) {
	_, err := Parse(testCatalog(), `SELECT R.A FROM R, S WHERE R.A = S.D AND R.B + S.E = 5`)
	if err == nil || !strings.Contains(err.Error(), "mixes relations") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseSelectMustReferenceFromRelations(t *testing.T) {
	// Alias resolution means SELECT can only name the FROM aliases, but
	// keep the guard exercised through a direct construction if possible —
	// via the parser this always errors as unknown alias.
	_, err := Parse(testCatalog(), `SELECT Authors.Name FROM R, S WHERE R.A = S.D`)
	if err == nil {
		t.Fatal("SELECT over non-FROM relation accepted")
	}
}

func TestQueryIdentityAndTimes(t *testing.T) {
	q := MustParse(testCatalog(), `SELECT R.A FROM R, S WHERE R.B = S.E`)
	if q.Key() != "" {
		t.Fatal("fresh query has a key")
	}
	q2 := q.WithIdentity("node7", "sim://abc", 3)
	if q2.Key() != "node7#3" || q2.Subscriber() != "node7" || q2.SubscriberIP() != "sim://abc" {
		t.Fatalf("identity: %q %q %q", q2.Key(), q2.Subscriber(), q2.SubscriberIP())
	}
	if q.Key() != "" {
		t.Fatal("WithIdentity mutated the original")
	}
	q3 := q2.WithInsT(99)
	if q3.InsT() != 99 || q2.InsT() != 0 {
		t.Fatal("WithInsT wrong")
	}
}

func TestSideHelpers(t *testing.T) {
	q := MustParse(testCatalog(), `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	if s, err := q.SideFor("R"); err != nil || s != SideLeft {
		t.Fatalf("SideFor(R) = %v, %v", s, err)
	}
	if s, err := q.SideFor("S"); err != nil || s != SideRight {
		t.Fatalf("SideFor(S) = %v, %v", s, err)
	}
	if _, err := q.SideFor("Z"); err == nil {
		t.Fatal("SideFor(Z) accepted")
	}
	if SideLeft.Other() != SideRight || SideRight.Other() != SideLeft {
		t.Fatal("Other wrong")
	}
	if SideLeft.String() != "left" || SideRight.String() != "right" {
		t.Fatal("side names wrong")
	}
	if a, err := q.SingleAttr(SideLeft); err != nil || a != "B" {
		t.Fatalf("SingleAttr = %v, %v", a, err)
	}
	t2 := MustParse(testCatalog(), `SELECT R.A FROM R, S WHERE R.B + R.C = S.E`)
	if _, err := t2.SingleAttr(SideLeft); err == nil {
		t.Fatal("SingleAttr over multi-attribute side accepted")
	}
}

func TestEvalAndInvertSide(t *testing.T) {
	q := MustParse(testCatalog(), `SELECT R.A FROM R, S WHERE 2 * R.B = S.E + 1`)
	r := relation.MustSchema("R", "A", "B", "C")
	tp := relation.MustTuple(r, relation.N(0), relation.N(5), relation.N(0))
	v, err := q.EvalSide(SideLeft, tp)
	if err != nil || !v.Equal(relation.N(10)) {
		t.Fatalf("EvalSide = %v, %v", v, err)
	}
	// Right side must equal 10 → S.E = 9.
	want, val, err := q.StageWant(SideLeft, 1, tp)
	if err != nil || *want != (relation.AttrRef{Rel: "S", Attr: "E"}) || !val.Equal(relation.N(9)) {
		t.Fatalf("StageWant = %v = %v, %v", want, val, err)
	}
}

func TestNeededAttrs(t *testing.T) {
	q := MustParse(testCatalog(), `
		SELECT D.Title, A.Name FROM Document AS D, Authors AS A
		WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'`)
	da := q.NeededAttrs("Document")
	if len(da) != 2 || da[0] != "Title" || da[1] != "AuthorId" {
		t.Fatalf("Document needed = %v", da)
	}
	aa := q.NeededAttrs("Authors")
	if len(aa) != 3 { // Name, Id, Surname
		t.Fatalf("Authors needed = %v", aa)
	}
}

func TestRewriteKeyUniqueness(t *testing.T) {
	q := MustParse(testCatalog(), `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`).WithIdentity("n1", "ip", 1)
	r := relation.MustSchema("R", "A", "B", "C")
	t1 := relation.MustTuple(r, relation.N(1), relation.N(7), relation.N(0))
	t2 := relation.MustTuple(r, relation.N(1), relation.N(7), relation.N(99)) // same A and B
	t3 := relation.MustTuple(r, relation.N(2), relation.N(7), relation.N(0))  // different A
	k1, err := q.RewriteKey(t1, relation.N(7))
	if err != nil {
		t.Fatalf("RewriteKey: %v", err)
	}
	k2, _ := q.RewriteKey(t2, relation.N(7))
	k3, _ := q.RewriteKey(t3, relation.N(7))
	if k1 != k2 {
		t.Fatalf("same select values + same valDA must share keys: %q vs %q", k1, k2)
	}
	if k1 == k3 {
		t.Fatal("different select values must differ")
	}
	if !strings.HasPrefix(k1, "n1#1") {
		t.Fatalf("rewrite key %q must extend Key(q)", k1)
	}
}

func TestProjectNotification(t *testing.T) {
	q := MustParse(testCatalog(), `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	r := relation.MustSchema("R", "A", "B", "C")
	s := relation.MustSchema("S", "D", "E", "F")
	lt := relation.MustTuple(r, relation.N(1), relation.N(7), relation.N(0))
	rt := relation.MustTuple(s, relation.S("d"), relation.N(7), relation.N(0))
	vals, err := q.ProjectNotification(lt, rt)
	if err != nil {
		t.Fatalf("ProjectNotification: %v", err)
	}
	if len(vals) != 2 || !vals[0].Equal(relation.N(1)) || !vals[1].Equal(relation.S("d")) {
		t.Fatalf("projection = %v", vals)
	}
	if _, err := q.ProjectNotification(rt, lt); err == nil {
		t.Fatal("swapped relations accepted")
	}
}

func TestFiltersPass(t *testing.T) {
	q := MustParse(testCatalog(), `
		SELECT D.Title FROM Document AS D, Authors AS A
		WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'`)
	authors := relation.MustSchema("Authors", "Id", "Name", "Surname")
	smith := relation.MustTuple(authors, relation.N(1), relation.S("John"), relation.S("Smith"))
	jones := relation.MustTuple(authors, relation.N(2), relation.S("Ann"), relation.S("Jones"))
	if ok, _ := q.FiltersPass(smith); !ok {
		t.Fatal("Smith must pass")
	}
	if ok, _ := q.FiltersPass(jones); ok {
		t.Fatal("Jones must not pass")
	}
	// Tuples of the other relation are unconstrained.
	doc := relation.MustSchema("Document", "Id", "Title", "Conference", "AuthorId")
	d := relation.MustTuple(doc, relation.N(1), relation.S("t"), relation.S("c"), relation.N(1))
	if ok, _ := q.FiltersPass(d); !ok {
		t.Fatal("Document tuple must pass vacuously")
	}
}

func TestTypeStrings(t *testing.T) {
	if T1.String() != "T1" || T2.String() != "T2" {
		t.Fatal("type names wrong")
	}
}

func TestAccessorsAndRestoredIdentity(t *testing.T) {
	sql := `SELECT R.A FROM R, S WHERE R.B = S.E AND S.F >= 1`
	q := MustParse(testCatalog(), sql)
	if q.Text() != sql {
		t.Fatalf("Text = %q", q.Text())
	}
	if len(q.Filters()) != 1 {
		t.Fatalf("Filters = %v", q.Filters())
	}
	r := q.WithRestoredIdentity("k#9", "subKey", "ip9")
	if r.Key() != "k#9" || r.Subscriber() != "subKey" || r.SubscriberIP() != "ip9" {
		t.Fatalf("restored identity wrong: %q %q %q", r.Key(), r.Subscriber(), r.SubscriberIP())
	}
	if q.Key() != "" {
		t.Fatal("WithRestoredIdentity mutated the original")
	}

	mq := MustParse(testCatalog(), `SELECT R.A FROM R, S, Authors WHERE R.B = S.E AND S.F = Authors.Id`)
	if mq.Text() == "" || len(mq.Select()) != 1 {
		t.Fatalf("chain accessors wrong: %q %v", mq.Text(), mq.Select())
	}
	mr := mq.WithRestoredIdentity("k#1", "s", "ip")
	if mr.Key() != "k#1" || mr.Subscriber() != "s" || mr.SubscriberIP() != "ip" {
		t.Fatal("chain restored identity wrong")
	}
}

func TestQueryString(t *testing.T) {
	sql := `SELECT R.A FROM R, S WHERE R.B = S.E`
	q := MustParse(testCatalog(), sql)
	if q.String() != sql {
		t.Fatalf("String = %q", q.String())
	}
}
