package query

import (
	"testing"
)

// fuzzSeeds seeds FuzzParser; the plan equivalence test reuses them.
var fuzzSeeds = []string{
	`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`,
	`SELECT R.B, S.E FROM R, S WHERE R.A = S.D AND S.F >= 1`,
	`SELECT R.A FROM R, S WHERE 2 * R.B = S.E + 1`,
	`SELECT R.A FROM R, S WHERE 2 * R.B + R.C = S.E * S.F AND S.D >= 1`,
	`SELECT Document.Title, Authors.Name FROM Document, Authors WHERE Document.AuthorId = Authors.Id`,
	`SELECT R.A, S.D, T.G FROM R, S, T WHERE R.B = S.E AND S.F = T.H`,
	`SELECT R.A, Authors.Name FROM R, S, Authors WHERE R.B = S.E AND S.F = Authors.Id`,
	`SELECT D.Title FROM Authors A, S, Document D, R WHERE R.C = S.D AND D.Id = A.Id AND S.F = 2 * D.AuthorId AND A.Surname = 'x'`,
	`SELECT FROM WHERE`,
	`SELECT R.A FROM R, S WHERE R.B = `,
	`SELECT R.A FROM R, S WHERE R.B = S.E AND`,
	`select r.a from r, s where r.b = s.e`,
	`SELECT R.A FROM R, S WHERE R.B = R.B`,
	`SELECT R.A FROM R, S WHERE 0 * R.B = S.E`,
	`SELECT R.A FROM R, S WHERE R.B = S.E OR R.C = S.F`,
	"SELECT R.A FROM R, S WHERE R.B = S.E\x00",
	`SELECT R.A FROM R, S WHERE R.B/0 = S.E",`,
	`𝕊ELECT ℝ.A FROM R, S WHERE R.B = S.E`,
	`SELECT D.Title, A.Name FROM Document AS D, Authors A WHERE D.AuthorId = A.Id AND A.Surname = 'Smith' AND D.Title != "x"`,
	`SELECT R.A FROM R, S WHERE (R.B + 1.5) * 2 = -S.E AND R.C <= 0.25`,
}

// FuzzParser feeds arbitrary byte strings to the parser, at every arity.
// The contract: never panic, never hang, and for every accepted query the
// canonical text must re-parse to an equivalent query (stable condition key
// and equivalent-condition grouping would otherwise silently break — queries
// travel over the wire as SQL text, or its token form, and are re-parsed on
// arrival), and a token form must spell the text back exactly.
func FuzzParser(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}

	catalog := testCatalog()
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(catalog, sql)
		if err != nil {
			return
		}
		q2, err := Parse(catalog, q.Text())
		if err != nil {
			t.Fatalf("canonical text rejected: Parse(%q) ok, re-Parse(%q): %v", sql, q.Text(), err)
		}
		if q.ConditionKey() != q2.ConditionKey() || q.Arity() != q2.Arity() {
			t.Fatalf("condition key unstable: %q -> %q vs %q", sql, q.ConditionKey(), q2.ConditionKey())
		}
		if tokens := q.Tokens(); tokens != nil {
			if text, err := AppendText(nil, catalog, tokens); err != nil || string(text) != sql {
				t.Fatalf("the token form of %q spells %q (%v)", sql, text, err)
			}
		}
	})
}
