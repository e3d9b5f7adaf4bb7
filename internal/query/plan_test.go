package query

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cqjoin/internal/relation"
)

// The reference derivations below are the per-call tree walks the compiled
// plan replaced, kept as the oracle every plan field is compared against.

func refConditionKey(q *Query) string {
	return q.Expr(SideLeft).String() + " = " + q.Expr(SideRight).String()
}

func refType(q *Query) Type {
	if Invertible(q.Expr(SideLeft)) && Invertible(q.Expr(SideRight)) {
		return T1
	}
	return T2
}

func refSideAttrs(q *Query, s Side) []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range Attrs(q.Expr(s)) {
		if !seen[a.Name] {
			seen[a.Name] = true
			out = append(out, a.Name)
		}
	}
	return out
}

func refNeededAttrs(q *Query, rel string) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(a Attr) {
		if a.Rel == rel && !seen[a.Name] {
			seen[a.Name] = true
			out = append(out, a.Name)
		}
	}
	for _, a := range q.sel {
		add(a)
	}
	if side, err := q.SideFor(rel); err == nil {
		for _, a := range Attrs(q.Expr(side)) {
			add(a)
		}
	}
	for _, f := range q.filters {
		if f.Rel != rel {
			continue
		}
		for _, a := range Attrs(f.L) {
			add(a)
		}
		for _, a := range Attrs(f.R) {
			add(a)
		}
	}
	return out
}

func refProjectNotification(q *Query, left, right *relation.Tuple) []relation.Value {
	out := make([]relation.Value, len(q.sel))
	for i, a := range q.sel {
		src := left
		if a.Rel == q.Rel(SideRight).Name() {
			src = right
		}
		out[i] = src.MustValue(a.Name)
	}
	return out
}

func refRewriteKey(q *Query, t *relation.Tuple, valDA relation.Value) string {
	key := q.key
	for _, a := range q.sel {
		if a.Rel == t.Relation() {
			key += "+" + t.MustValue(a.Name).Canon()
		}
	}
	return key + "+" + valDA.Canon()
}

// planCorpus is every SQL text of the parser's fuzz seeds and saved fuzz
// corpus plus the two-way queries the engine, daemon and root test suites
// pose (all over planCatalog's relations).
func planCorpus(t *testing.T) []string {
	t.Helper()
	corpus := append([]string(nil), fuzzSeeds...)
	corpus = append(corpus,
		`SELECT R.A, S.D FROM R, S WHERE R.C = S.F`,
		`SELECT S.D FROM R, S WHERE R.B = S.E AND R.C = 2`,
		`SELECT R.A, S.D FROM R, S WHERE R.B + R.C = S.E + S.F`,
		`SELECT R.C, S.F FROM R, S WHERE R.A = S.D`,
		`SELECT R.B, S.E FROM R, S WHERE R.B = S.E`,
		`SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND S.F = 1 AND R.C = 2`,
		`SELECT R.A FROM R, S WHERE R.C = S.F AND S.D > 3`,
		`SELECT R.A, S.D FROM R, S WHERE 4 * R.B + R.C + 8 = 5 * S.E + S.D - S.F`,
		`SELECT R.A, S.D FROM R, S WHERE R.B + R.C = S.E * S.F`,
		`SELECT R.A, S.D FROM R, S WHERE 2 * R.B = S.E + 4`,
		`SELECT R.C, S.F FROM R, S WHERE R.A = S.D AND S.F >= 1`,
		`SELECT R.A, S.E FROM R, S WHERE R.C = S.F`,
		`SELECT R.A FROM R, S WHERE (R.B + 2) * R.C = S.E`,
		`SELECT R.A FROM R, S WHERE -R.B = S.E`,
		`SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = "x y"`,
		`SELECT S.F, R.A, S.D, R.A FROM S, R WHERE S.E = R.B AND R.A + R.C >= 2 AND S.D < S.F`,
		`SELECT D.Title FROM Document D, Authors A WHERE D.AuthorId = A.Id`,
		`SELECT D.Title, D.Conference FROM Document AS D, Authors AS A WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'`,
		`SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`,
		`SELECT O.Id, O.Customer, O.Product, S.Id FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`,
	)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParser", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
			t.Fatalf("%s: not a one-string fuzz corpus file", f)
		}
		sql, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		corpus = append(corpus, sql)
	}
	return corpus
}

func planCatalog() *relation.Catalog {
	return relation.MustCatalog(append(testCatalog().Schemas(),
		relation.MustSchema("Orders", "Id", "Customer", "Product"),
		relation.MustSchema("Shipments", "Id", "Product", "Depot"),
	)...)
}

// TestPlanEquivalence checks every plan field against the derivation it
// replaced, on the query as parsed, on each copy constructor's result, and
// on what a wire round-trip yields (a re-parse of Text() restored with
// WithInsT and WithRestoredIdentity — wire.Coder.Query's steps; the codec
// tests repeat the check through the real codec).
func TestPlanEquivalence(t *testing.T) {
	catalog := planCatalog()
	accepted := 0
	for _, sql := range planCorpus(t) {
		q, err := Parse(catalog, sql)
		if err != nil || q.Arity() > 2 { // a chain's plan is held to the chain tests
			continue
		}
		accepted++
		identified := q.WithIdentity("peer7", "sim://7", 3)
		reparsed, err := Parse(catalog, q.Text())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", q.Text(), err)
		}
		variants := map[string]*Query{
			"parsed":               q,
			"WithIdentity":         identified,
			"WithInsT":             identified.WithInsT(41),
			"WithRestoredIdentity": q.WithRestoredIdentity("peer9#2", "peer9", "sim://9"),
			"wire round-trip":      reparsed.WithInsT(41).WithRestoredIdentity(identified.Key(), "peer7", "sim://7"),
		}
		for name, v := range variants {
			checkPlan(t, sql+" ["+name+"]", v, q)
		}
	}
	if accepted < 25 {
		t.Fatalf("only %d corpus queries parsed: the corpus is not exercising the plan", accepted)
	}
}

func checkPlan(t *testing.T, label string, q, parsed *Query) {
	t.Helper()
	if got, want := q.ConditionKey(), refConditionKey(q); got != want {
		t.Errorf("%s: ConditionKey = %q, want %q", label, got, want)
	}
	if got, want := q.Type(), refType(q); got != want {
		t.Errorf("%s: Type = %v, want %v", label, got, want)
	}
	full := [2]*relation.Tuple{}
	proj := [2]*relation.Tuple{}
	foreign := [2]*relation.Tuple{}
	for _, s := range []Side{SideLeft, SideRight} {
		rel := q.Rel(s)
		want := refSideAttrs(q, s)
		if got := q.SideAttrs(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: SideAttrs(%s) = %v, want %v", label, s, got, want)
		}
		single, err := q.SingleAttr(s)
		if (err == nil) != (len(want) == 1) || (err == nil && single != want[0]) {
			t.Errorf("%s: SingleAttr(%s) = %q, %v; side attrs %v", label, s, single, err, want)
		}
		needed := refNeededAttrs(q, rel.Name())
		if got := q.NeededAttrs(rel.Name()); !reflect.DeepEqual(got, needed) {
			t.Errorf("%s: NeededAttrs(%s) = %v, want %v", label, rel.Name(), got, needed)
		}
		shape := q.Projection(s)
		if shape.Name() != rel.Name() || !reflect.DeepEqual(shape.Attrs(), needed) {
			t.Errorf("%s: Projection(%s) = %s, want %s%v", label, s, shape, rel.Name(), needed)
		}
		if shape != parsed.Projection(s) {
			t.Errorf("%s: Projection(%s) is not the interned schema the parsed query holds", label, s)
		}
		vals := make([]relation.Value, rel.Arity())
		for i := range vals {
			vals[i] = relation.N(float64(100*int(s) + i + 1))
		}
		full[s] = relation.MustTuple(rel, vals...).WithPubT(int64(5 + s))
		if proj[s], err = full[s].ProjectOnto(shape); err != nil {
			t.Fatalf("%s: ProjectOnto(%s): %v", label, shape, err)
		}
		// A tuple of the relation under a schema of its own — what a decoder
		// builds for an attribute list it does not recognise.
		foreign[s] = relation.MustTuple(relation.MustSchema(rel.Name(), rel.Attrs()...), vals...).WithPubT(int64(5 + s))
	}
	if got := q.NeededAttrs("NoSuchRelation"); len(got) != 0 || len(refNeededAttrs(q, "NoSuchRelation")) != 0 {
		t.Errorf("%s: NeededAttrs of a foreign relation = %v", label, got)
	}
	// The select-list map: every pairing of full, projected and foreign
	// tuples projects to what the by-name lookup gives.
	want := refProjectNotification(q, full[SideLeft], full[SideRight])
	for li, l := range []*relation.Tuple{full[SideLeft], proj[SideLeft], foreign[SideLeft]} {
		for ri, r := range []*relation.Tuple{full[SideRight], proj[SideRight], foreign[SideRight]} {
			got, err := q.ProjectNotification(l, r)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: ProjectNotification(%d,%d) = %v, %v; want %v", label, li, ri, got, err, want)
			}
		}
	}
	for _, s := range []Side{SideLeft, SideRight} {
		valDA := relation.S("v|" + strconv.Itoa(int(s)))
		for _, tu := range []*relation.Tuple{full[s], foreign[s]} {
			got, err := q.RewriteKey(tu, valDA)
			if want := refRewriteKey(q, tu, valDA); err != nil || got != want {
				t.Errorf("%s: RewriteKey(%s) = %q, %v; want %q", label, s, got, err, want)
			}
		}
	}
}

// TestPlanIsSharedNotCopied pins that the copy constructors share the plan
// by pointer: a copy that compiled its own would redo the work per query.
func TestPlanIsSharedNotCopied(t *testing.T) {
	q := MustParse(testCatalog(), `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	for _, cp := range []*Query{q.WithIdentity("n", "ip", 1), q.WithInsT(4), q.WithRestoredIdentity("k", "n", "ip")} {
		if cp.plan != q.plan {
			t.Fatal("copy constructor did not share the plan")
		}
	}
}

// TestProjectionInterning pins the sharing rewriters rely on: separately
// parsed queries needing the same attributes of a relation hold the same
// projection schema, a different list or order gets a different one, and
// the full list in declaration order is the catalog schema itself.
func TestProjectionInterning(t *testing.T) {
	catalog := testCatalog()
	a := MustParse(catalog, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	b := MustParse(catalog, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	c := MustParse(catalog, `SELECT R.B, S.D FROM R, S WHERE R.A = S.E`) // R needs [B A]
	if a.Projection(SideLeft) != b.Projection(SideLeft) || a.Projection(SideRight) != b.Projection(SideRight) {
		t.Fatal("equal needed-attribute lists did not share a projection schema")
	}
	if a.Projection(SideLeft) == c.Projection(SideLeft) {
		t.Fatal("[A B] and [B A] share a projection schema")
	}
	fullShape := MustParse(catalog, `SELECT R.A, R.B, R.C FROM R, S WHERE R.B = S.E`)
	if fullShape.Projection(SideLeft) != catalog.Lookup("R") {
		t.Fatal("the full attribute list did not resolve to the catalog schema")
	}
}
