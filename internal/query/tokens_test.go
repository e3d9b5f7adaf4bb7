package query

import (
	"bytes"
	"fmt"
	"testing"

	"cqjoin/internal/relation"
)

// Every query written with one space between words, none around "." or inside
// parentheses, has a token form, and the form spells its text back exactly:
// relation names, qualified attributes, aliases, keywords in another case,
// numbers as written, strings in either quote, selections. The benchmark's
// query is 16 bytes of it.
func TestTokenFormSpellsTheText(t *testing.T) {
	catalog := planCatalog()
	for _, sql := range []string{
		`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`,
		`SELECT R.A, S.D FROM R, S WHERE R.B = S.E * 2 + 1 AND R.C >= 1 AND S.F < 5`,
		`SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`,
		`SELECT D.Title, A.Name FROM Document D, Authors A WHERE D.AuthorId = A.Id AND A.Surname = 'Smith' AND D.Title != "Joins"`,
		`SELECT R.A FROM R, S WHERE (R.B + 1.5) * 2 = S.E AND R.C <= 0.25`,
		`select R.A from R, S where R.B = S.E and S.F > 007`,
		`SELECT S.A, R.D FROM R AS S, S AS R WHERE S.B = R.E`,
	} {
		q, err := Parse(catalog, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if q.Tokens() == nil {
			t.Errorf("%s: no token form", sql)
			continue
		}
		if text, err := AppendText(nil, catalog, q.Tokens()); err != nil || string(text) != sql {
			t.Errorf("the token form of %q spells %q (%v)", sql, text, err)
		}
		if copied := q.WithIdentity("peer1", "sim://1", 1).WithInsT(9); !bytes.Equal(copied.Tokens(), q.Tokens()) {
			t.Errorf("%s: a copy of the query has another token form", sql)
		}
	}
	r3, s3 := relation.MustSchema("R3", "Id", "A", "B", "C"), relation.MustSchema("S3", "Id", "A", "B", "C")
	bench := MustParse(relation.MustCatalog(r3, s3), `SELECT R3.Id, S3.Id FROM R3, S3 WHERE R3.A = S3.A`)
	if got := len(bench.Tokens()); got != 16 {
		t.Errorf("the benchmark's query, %d bytes of text, is %d of tokens, want 16", len(bench.Text()), got)
	}
}

// A text the rebuild would space otherwise has no token form: it travels as
// written.
func TestTokenFormNeedsTheCanonicalSpacing(t *testing.T) {
	catalog := testCatalog()
	for _, sql := range []string{
		`SELECT R.A, S.D FROM R, S WHERE R.B=S.E`,
		` SELECT R.A, S.D FROM R, S WHERE R.B = S.E`,
		"SELECT R.A, S.D\n FROM R, S WHERE R.B = S.E",
		`SELECT R.A, S.D FROM R, S WHERE R.B = -1 + S.E`,
		`SELECT R . A, S.D FROM R, S WHERE R.B = S.E`,
	} {
		if q := MustParse(catalog, sql); q.Tokens() != nil {
			t.Errorf("%q has a token form, %x", sql, q.Tokens())
		}
	}
}

// AppendText refuses what no catalog-bound stream holds: a relation ordinal
// past the catalog, an attribute ordinal past the relation's arity, a code no
// word has, and a stream cut inside a token.
func TestAppendTextRefusesForgedTokens(t *testing.T) {
	catalog := testCatalog() // Authors, Document, R, S
	rel := func(ord, form int) byte { return byte(codeRel + 2*ord + form) }
	for what, tokens := range map[string][]byte{
		"relation past the catalog":     {1, rel(4, formRel)},
		"far relation past the catalog": {1, codeFar, 2 * 4},
		"huge relation ordinal":         {1, codeFar, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"attribute past the arity":      {1, rel(2, formCol), 3},
		"attribute past, alone":         {1, codeAttr, 3, 200, 1},
		"code 0":                        {1, 0},
		"cut inside a uvarint":          {1, codeFar, 0x80},
		"cut before the attribute":      {1, rel(2, formCol)},
		"cut inside an alone attribute": {1, codeAttr, 2},
		"cut inside a literal":          {1, codeIdent, 5, 'a', 'b'},
		"cut before a literal's size":   {1, codeNumber},
	} {
		if text, err := AppendText(nil, catalog, tokens); err == nil {
			t.Errorf("%s: %x spells %q", what, tokens, text)
		}
	}
	for want, tokens := range map[string][]byte{
		"SELECT R.C, S.D": {1, rel(2, formCol), 2, 6, rel(3, formCol), 0},
		"SELECT R.C":      {1, codeFar, 2*2 + formCol, 2},
		"FROM x.D":        {2, codeIdent, 1, 'x', 7, codeAttr, 3, 0},
	} {
		if text, err := AppendText(nil, catalog, tokens); err != nil || string(text) != want {
			t.Errorf("%x spells %q (%v), want %q", tokens, text, err, want)
		}
	}
}

// A relation past the first relsInByte of the catalog is named in more than
// one byte, and spelled back all the same.
func TestTokenFormOfAFarRelation(t *testing.T) {
	var schemas []*relation.Schema
	for i := 0; i <= relsInByte; i++ {
		schemas = append(schemas, relation.MustSchema(fmt.Sprintf("T%03d", i), "A", "B"))
	}
	catalog := relation.MustCatalog(schemas...)
	far := fmt.Sprintf("T%03d", relsInByte)
	sql := fmt.Sprintf("SELECT %s.B, T000.B FROM %s, T000 WHERE %s.A = T000.A", far, far, far)
	q := MustParse(catalog, sql)
	if !bytes.Contains(q.Tokens(), []byte{codeFar}) {
		t.Fatalf("%s: no far relation code in %x", sql, q.Tokens())
	}
	if text, err := AppendText(nil, catalog, q.Tokens()); err != nil || string(text) != sql {
		t.Fatalf("the token form of %q spells %q (%v)", sql, text, err)
	}
}
