package wire

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var w Buffer
	w.PutUvarint(300)
	w.PutVarint(-42)
	w.PutString("hello world")

	r := NewReader(w.Bytes())
	if v, err := r.Uvarint(); err != nil || v != 300 {
		t.Fatalf("uvarint = %d, %v", v, err)
	}
	if v, err := r.Varint(); err != nil || v != -42 {
		t.Fatalf("varint = %d, %v", v, err)
	}
	if s, err := r.String(); err != nil || s != "hello world" {
		t.Fatalf("string = %q, %v", s, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

// Every number crosses the wire bit for bit, whichever of the two forms
// carries it: whole numbers below 2^53 as a varint, everything else — the
// integers float64 starts skipping at 2^53, fractions, -0, NaN, the
// infinities — in its eight bytes.
func TestNumberFormsRoundTripBitExact(t *testing.T) {
	for _, tc := range []struct {
		f    float64
		size int // of the value, kind byte included
	}{
		{0, 2}, {1, 2}, {-1, 2}, {63, 2}, {64, 3}, {-64, 2}, {-65, 3}, {1e6, 4},
		{1<<53 - 1, 9}, {-(1<<53 - 1), 9},
		{1 << 53, 9}, {1<<53 + 2, 9}, {-(1 << 53), 9}, {math.MaxInt64, 9}, {math.MinInt64, 9},
		{0.5, 9}, {math.Copysign(0, -1), 9}, {math.NaN(), 9}, {math.Inf(1), 9}, {math.Inf(-1), 9},
		{math.MaxFloat64, 9}, {math.SmallestNonzeroFloat64, 9},
	} {
		enc := encodeValue(t, relation.N(tc.f))
		if len(enc) != tc.size {
			t.Errorf("%v: %d bytes written, want %d", tc.f, len(enc), tc.size)
		}
		got, err := decodeValue(enc)
		if err != nil || got.Kind() != relation.Number || math.Float64bits(got.Num()) != math.Float64bits(tc.f) {
			t.Errorf("%v (%#x) came back as %v (%v)", tc.f, math.Float64bits(tc.f), got, err)
		}
	}
	// An integer outside the range the encoder uses the form for is not read
	// as the nearest float.
	for _, i := range []int64{1 << 53, -(1 << 53), math.MaxInt64, math.MinInt64} {
		var w Buffer
		w.PutRaw([]byte{kindInt})
		w.PutVarint(i)
		if v, err := decodeValue(w.Bytes()); err == nil {
			t.Errorf("integer %d accepted as %v", i, v)
		}
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	f := func(s string, n float64, isStr bool) bool {
		var v relation.Value
		if isStr {
			v = relation.S(s)
		} else {
			if math.IsNaN(n) {
				return true // NaN never compares equal; not a legal value
			}
			v = relation.N(n)
		}
		got, err := decodeValue(encodeValue(t, v))
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTupleRoundTrip(t *testing.T) {
	s := relation.MustSchema("Document", "Id", "Title", "AuthorId")
	tu := relation.MustTuple(s, relation.N(1), relation.S("P2P Joins"), relation.N(17)).WithPubT(99)
	got, err := decodeTuple(encodeTuple(t, tu, nil, true), nil, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Relation() != "Document" || got.PubT() != 99 {
		t.Fatalf("tuple identity wrong: %s @%d", got, got.PubT())
	}
	for _, a := range s.Attrs() {
		if !got.MustValue(a).Equal(tu.MustValue(a)) {
			t.Fatalf("attribute %s mismatch", a)
		}
	}
}

// A tuple whose schema its receiver holds — a catalog's, or the projection
// the query it travels with expects — leaves the attribute names home, and
// decodes onto the receiver's own schema; any other schema names them. The
// choice is made on what the schemas declare: a private copy of the expected
// projection counts as it, and whichever form a tuple took, the decoded
// tuple takes again.
func TestTupleLeavesHeldSchemaHome(t *testing.T) {
	doc := relation.MustSchema("Document", "Id", "Title", "AuthorId")
	catalog := relation.MustCatalog(doc)
	proj, err := doc.Projection([]string{"Title", "Id"})
	if err != nil {
		t.Fatal(err)
	}
	full := relation.MustTuple(doc, relation.N(1), relation.S("P2P Joins"), relation.N(17)).WithPubT(99)
	part, err := full.ProjectOnto(proj)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := full.Project([]string{"Title", "Id"}) // a schema of its own, equal to proj
	if err != nil {
		t.Fatal(err)
	}
	foreign := relation.MustTuple(relation.MustSchema("Document", "Id", "Title", "AuthorId"),
		relation.N(1), relation.S("P2P Joins"), relation.N(17))
	for _, tc := range []struct {
		what   string
		tu     *relation.Tuple
		shape  *relation.Schema
		named  bool
		schema *relation.Schema // what it decodes onto; nil for one of its own
	}{
		{"catalog tuple, no shape", full, nil, false, doc},
		{"projection under its shape", part, proj, false, proj},
		{"private copy of the shape", copied, proj, false, proj},
		{"full tuple where the shape is the full list", full, doc, false, doc},
		{"projection with no shape", part, nil, true, nil},
		{"catalog tuple under a narrower shape", full, proj, true, doc},
		{"uncataloged schema, no shape", foreign, nil, true, doc},
	} {
		if named := !held(tc.tu.Schema(), tc.shape); named != tc.named {
			t.Fatalf("%s: travels with its names: %v", tc.what, named)
		}
		// Named, the encoding takes the names in place of the nameless form's
		// arity 0; said under its shape, the tuple is named exactly when that
		// shape does not hold its schema.
		enc := encodeTuple(t, tc.tu, tc.shape, tc.named)
		if lead := enc[SizeString(tc.tu.Relation())]; (lead == 0) == tc.named {
			t.Fatalf("%s: %x leads its values with %d", tc.what, enc, lead)
		}
		got, err := decodeTuple(enc, catalog, tc.shape)
		if err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		if !got.Equal(tc.tu) || tc.schema != nil && got.Schema() != tc.schema {
			t.Fatalf("%s: decoded %v onto %v", tc.what, got, got.Schema())
		}
		if tc.what == "uncataloged schema, no shape" {
			continue // the one case that converges: the receiver's catalog declares the same list
		}
		if named := !held(got.Schema(), tc.shape); named != tc.named {
			t.Fatalf("%s: decoded, it travels with its names: %v", tc.what, named)
		}
	}
}

// A nameless tuple only decodes where a schema of its arity is held: a
// receiver with no catalog, a catalog without the relation, a catalog (or a
// shape) of another arity or another relation all fail the message; none
// slices the values by a schema they were not written for.
func TestNamelessTupleNeedsItsSchema(t *testing.T) {
	sent := relation.MustSchema("R", "A", "B", "C")
	relation.MustCatalog(sent)
	enc := encodeTuple(t, relation.MustTuple(sent, relation.N(1), relation.N(2), relation.N(3)), nil, false)
	if enc[2] != 0 {
		t.Fatalf("a catalog tuple was written with its names: %x", enc)
	}
	narrower := relation.MustSchema("R", "A", "B")
	other := relation.MustSchema("S", "A", "B", "C")
	for what, rx := range map[string]struct {
		catalog *relation.Catalog
		shape   *relation.Schema
	}{
		"no catalog":                 {nil, nil},
		"catalog without R":          {relation.MustCatalog(other), nil},
		"catalog with a narrower R":  {relation.MustCatalog(narrower), nil},
		"shape of another arity":     {relation.MustCatalog(sent), narrower},
		"shape of another relation":  {relation.MustCatalog(sent), other},
		"nameless form, no arity":    {relation.MustCatalog(sent), nil},
		"nameless form, wrong arity": {relation.MustCatalog(sent), nil},
	} {
		in := enc
		switch what {
		case "nameless form, no arity":
			in = in[:3]
		case "nameless form, wrong arity":
			in = append([]byte(nil), in...)
			in[3] = 2
		}
		if tu, err := decodeTuple(in, rx.catalog, rx.shape); err == nil {
			t.Errorf("%s: decoded %v onto %v", what, tu, tu.Schema())
		}
	}
	if _, err := decodeTuple(enc, relation.MustCatalog(relation.MustSchema("R", "X", "Y", "Z")), nil); err != nil {
		t.Errorf("a catalog of the same arity: %v (attribute names are the catalog's to give)", err)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	catalog := relation.MustCatalog(
		relation.MustSchema("R", "A", "B"),
		relation.MustSchema("S", "D", "E"),
	)
	q := query.MustParse(catalog, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND S.D >= 2`).
		WithIdentity("node9", "sim://abc", 4).WithInsT(123)

	got, err := decodeQuery(encodeQuery(t, q, ""), catalog, new(Memo), "")
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Key() != q.Key() || got.Subscriber() != q.Subscriber() || got.SubscriberIP() != q.SubscriberIP() {
		t.Fatalf("identity mismatch: %q %q %q", got.Key(), got.Subscriber(), got.SubscriberIP())
	}
	if got.InsT() != 123 {
		t.Fatalf("insT = %d", got.InsT())
	}
	if got.ConditionKey() != q.ConditionKey() {
		t.Fatalf("condition mismatch: %q vs %q", got.ConditionKey(), q.ConditionKey())
	}
	if len(got.Filters()) != 1 {
		t.Fatalf("filters lost: %v", got.Filters())
	}

	// After a query of the same text — its own copy of the bytes will do, a
	// different text will not — the text is an empty string, and the decoder
	// takes it from that predecessor, or fails when there is none.
	next := query.MustParse(catalog, q.Text()).WithIdentity("node3", "sim://def", 1).WithInsT(124)
	short, long := encodeQuery(t, next, q.Text()), encodeQuery(t, next, "")
	if want := len(long) - 1 - len(q.Tokens()); len(short) != want {
		t.Fatalf("after its text's twin: %d bytes, want %d; alone %d", len(short), want, len(long))
	}
	other := query.MustParse(catalog, `SELECT R.A FROM R, S WHERE R.B = S.E`).WithIdentity("node1", "sim://x", 1)
	if !bytes.Equal(encodeQuery(t, next, other.Text()), long) {
		t.Fatal("a query after one of another text did not write its own")
	}
	memo := new(Memo)
	got, err = decodeQuery(short, catalog, memo, q.Text())
	if err != nil || got.Key() != next.Key() || got.Text() != q.Text() || got.InsT() != 124 || len(got.Filters()) != 1 {
		t.Fatalf("decoded after its predecessor: %v, %v", got, err)
	}
	if again, err := decodeQuery(long, catalog, memo, ""); err != nil || again != got {
		t.Fatalf("the memo tells a query with its text from the same query without: %v", err)
	}
	if _, err := decodeQuery(short, catalog, new(Memo), ""); err == nil {
		t.Fatal("an empty text with no predecessor was accepted")
	}
}

// A query's key names its subscriber, Key(q) = subscriber + "#" + n, and the
// subscriber then travels as "": the decoder takes what precedes the key's
// last "#". A subscriber the key does not name travels in full, and bytes an
// earlier build wrote, the subscriber said, decode to the same query.
func TestSubscriberTheKeyNamesIsNotSaid(t *testing.T) {
	catalog := relation.MustCatalog(relation.MustSchema("R", "A", "B"), relation.MustSchema("S", "D", "E"))
	parsed := query.MustParse(catalog, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	named := parsed.WithIdentity("peer#7", "sim://abc", 4) // a "#" in the subscriber too
	for _, tc := range []struct {
		q   *query.Query
		sub string // what the wire says
	}{
		{named, ""},
		{parsed.WithRestoredIdentity("peer#7#4", "peer#8", "sim://abc"), "peer#8"},
		{parsed.WithRestoredIdentity("k", "peer7", "sim://abc"), "peer7"},
		{parsed.WithRestoredIdentity("", "", ""), ""},
	} {
		enc := encodeQuery(t, tc.q, "")
		r := NewReader(enc)
		if _, err := r.String(); err != nil {
			t.Fatal(err)
		}
		if said, err := r.String(); err != nil || said != tc.sub {
			t.Errorf("key %q, subscriber %q: the wire says %q (%v), want %q", tc.q.Key(), tc.q.Subscriber(), said, err, tc.sub)
		}
		got, err := decodeQuery(enc, catalog, new(Memo), "")
		if err != nil || got.Key() != tc.q.Key() || got.Subscriber() != tc.q.Subscriber() {
			t.Errorf("key %q, subscriber %q: decoded to %v (%v)", tc.q.Key(), tc.q.Subscriber(), got, err)
		}
	}
	var said Buffer
	said.PutString(named.Key())
	said.PutString(named.Subscriber())
	said.PutString(named.SubscriberIP())
	said.PutVarint(named.InsT())
	said.PutString(named.Text())
	got, err := decodeQuery(said.Bytes(), catalog, new(Memo), "")
	if err != nil || got.Subscriber() != named.Subscriber() || !bytes.Equal(encodeQuery(t, got, ""), encodeQuery(t, named, "")) {
		t.Fatalf("the subscriber said in full decoded to %v (%v)", got, err)
	}
}

// A query travels as its token form behind tokenMarker: the text's bytes,
// said as catalog ordinals and one byte a word, 18 bytes where the text took
// 42. A text the form does not spell back exactly — spaced otherwise —
// travels as written. Either decodes to the query sent, and so do the bytes of
// a build that said every text.
func TestQueryTravelsAsItsTokenForm(t *testing.T) {
	catalog := relation.MustCatalog(relation.MustSchema("R", "A", "B"), relation.MustSchema("S", "D", "E"))
	for _, tc := range []struct {
		sql    string
		tokens bool
	}{
		{`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`, true},
		{`SELECT R.A, S.D FROM R, S WHERE R.B=S.E`, false},
	} {
		q := query.MustParse(catalog, tc.sql).WithIdentity("peer3", "sim://3", 1).WithInsT(7)
		var text Buffer
		enc := encodeQuery(t, q, "")
		text.PutString(q.Key())
		text.PutString("")
		text.PutString(q.SubscriberIP())
		text.PutVarint(q.InsT())
		field := len(text.Bytes())
		text.PutString(q.Text())
		if sent := enc[field:]; (q.Tokens() != nil) != tc.tokens || tc.tokens && (sent[1] != tokenMarker || len(sent) != 18) {
			t.Errorf("%s: the text field is %x", tc.sql, sent)
		}
		if !tc.tokens && !bytes.Equal(enc, text.Bytes()) {
			t.Errorf("%s: said %x, want the text %x", tc.sql, enc, text.Bytes())
		}
		memo := new(Memo)
		for _, enc := range [][]byte{enc, text.Bytes(), enc} {
			got, err := decodeQuery(enc, catalog, memo, "")
			if err != nil || got.Text() != q.Text() || got.Key() != q.Key() || got.Subscriber() != q.Subscriber() || got.InsT() != q.InsT() {
				t.Errorf("%s: %x decoded to %v (%v)", tc.sql, enc, got, err)
			}
		}
	}
}

// A token form the receiver's catalog cannot spell, or spells to a text Parse
// refuses, fails the query; one that spells another query's text is that
// query, not the one its key names in the memo.
func TestForgedTokenFormFailsToDecode(t *testing.T) {
	catalog := relation.MustCatalog(relation.MustSchema("R", "A", "B"), relation.MustSchema("S", "D", "E"))
	q := query.MustParse(catalog, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`).WithIdentity("peer3", "sim://3", 1)
	forge := func(tokens ...byte) []byte {
		var w Buffer
		w.PutString(q.Key())
		w.PutString("")
		w.PutString(q.SubscriberIP())
		w.PutVarint(q.InsT())
		w.PutBytes(append([]byte{tokenMarker}, tokens...))
		return w.Bytes()
	}
	memo := new(Memo)
	if _, err := decodeQuery(forge(q.Tokens()...), catalog, memo, ""); err != nil {
		t.Fatalf("the query's own token form: %v", err)
	}
	// Codes (query/tokens.go): 1 SELECT, 2 FROM, 3 WHERE; 26 + 2·ordinal + form
	// a relation of the catalog (R, S), form 1 with an attribute ordinal after.
	for what, data := range map[string][]byte{
		"a relation past the catalog":  forge(1, 26+2*2),
		"an attribute past the arity":  forge(1, 26+2*1+1, 2),
		"an unknown code":              forge(1, 0),
		"a truncated stream":           forge(1, 26+2*1+1),
		"a text Parse refuses":         forge(1, 2, 3),
		"the marker and nothing after": forge(),
	} {
		if got, err := decodeQuery(data, catalog, memo, ""); err == nil {
			t.Errorf("%s: decoded to %v", what, got)
		}
	}
	other := query.MustParse(catalog, `SELECT S.D FROM R, S WHERE R.A = S.E`)
	if got, err := decodeQuery(forge(other.Tokens()...), catalog, memo, ""); err != nil || got.Text() != other.Text() {
		t.Fatalf("another token form under the key decoded to %v (%v), want %q", got, err, other.Text())
	}
}

func TestDecodeQueryBadSQL(t *testing.T) {
	catalog := relation.MustCatalog(relation.MustSchema("R", "A"))
	var w Buffer
	w.PutString("k")
	w.PutString("sub")
	w.PutString("ip")
	w.PutVarint(1)
	w.PutString("not sql at all")
	if _, err := decodeQuery(w.Bytes(), catalog, new(Memo), ""); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

func TestTruncationErrors(t *testing.T) {
	s := relation.MustSchema("R", "A", "B")
	tu := relation.MustTuple(s, relation.N(1), relation.S("x"))
	full := encodeTuple(t, tu, nil, true)
	// Every strict prefix must fail cleanly, never panic.
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeTuple(full[:cut], nil, nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = decodeTuple(b, nil, nil)
		_, _ = decodeValue(b)
		_, _ = NewReader(b).String()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTupleImplausibleArity(t *testing.T) {
	var w Buffer
	w.PutString("R")
	w.PutUvarint(1 << 40)
	if _, err := decodeTuple(w.Bytes(), nil, nil); err == nil {
		t.Fatal("absurd arity accepted")
	}
	var w2 Buffer
	w2.PutString("R")
	w2.PutUvarint(0)
	if _, err := decodeTuple(w2.Bytes(), nil, nil); err == nil {
		t.Fatal("zero arity accepted")
	}
}

func TestSizeHelpers(t *testing.T) {
	if SizeString("abc") != 4 { // 1-byte length + 3 bytes
		t.Fatalf("SizeString = %d", SizeString("abc"))
	}
	for _, tc := range []struct {
		v    relation.Value
		size int
	}{
		{relation.N(1.5), 9},  // kind + 8 bytes
		{relation.N(1), 2},    // kind + a one-byte varint
		{relation.S("ab"), 4}, // kind + len + 2
	} {
		if got := len(encodeValue(t, tc.v)); got != tc.size {
			t.Fatalf("%v: %d bytes, want %d", tc.v, got, tc.size)
		}
	}
}

// walked returns what walk encodes, after checking that a sizing walk adds up
// to its length.
func walked(t testing.TB, walk func(*Coder)) []byte {
	t.Helper()
	var w Buffer
	enc := Encoder(&w)
	walk(&enc)
	var sz Coder
	walk(&sz)
	if err := enc.Flush(&w); err != nil || sz.Err() != nil || sz.Size() != w.Len() {
		t.Fatalf("sized %d (%v), encoded %d bytes (%v)", sz.Size(), sz.Err(), w.Len(), err)
	}
	return w.Bytes()
}

// decoded runs walk decoding b against catalog and memo, and fails where it
// leaves bytes unread.
func decoded(b []byte, catalog *relation.Catalog, memo *Memo, walk func(*Coder)) error {
	r := NewReader(b)
	c := Decoder(r, catalog, memo)
	walk(&c)
	if err := c.Sync(r); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%d bytes left", r.Remaining())
	}
	return nil
}

func encodeValue(t testing.TB, v relation.Value) []byte {
	return walked(t, func(c *Coder) { c.Value(&v) })
}

func decodeValue(b []byte) (v relation.Value, err error) {
	err = decoded(b, nil, nil, func(c *Coder) { c.Value(&v) })
	return v, err
}

// encodeTuple encodes tu as Tuple(…, shape) does, or named, as NamedTuple.
func encodeTuple(t testing.TB, tu *relation.Tuple, shape *relation.Schema, named bool) []byte {
	if named {
		return walked(t, func(c *Coder) { c.NamedTuple(&tu) })
	}
	return walked(t, func(c *Coder) { c.Tuple(&tu, shape) })
}

func decodeTuple(b []byte, catalog *relation.Catalog, shape *relation.Schema) (tu *relation.Tuple, err error) {
	err = decoded(b, catalog, nil, func(c *Coder) { c.Tuple(&tu, shape) })
	return tu, err
}

func encodeQuery(t testing.TB, q *query.Query, prevText string) []byte {
	return walked(t, func(c *Coder) { c.Query(&q, prevText) })
}

func decodeQuery(b []byte, catalog *relation.Catalog, memo *Memo, prevText string) (q *query.Query, err error) {
	err = decoded(b, catalog, memo, func(c *Coder) { c.Query(&q, prevText) })
	return q, err
}
