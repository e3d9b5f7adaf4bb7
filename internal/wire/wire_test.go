package wire

import (
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
	w.PutValue(relation.S("s"))
	w.PutValue(relation.N(3.25))

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
	if v, err := r.Value(); err != nil || !v.Equal(relation.S("s")) {
		t.Fatalf("value = %v, %v", v, err)
	}
	if v, err := r.Value(); err != nil || !v.Equal(relation.N(3.25)) {
		t.Fatalf("value = %v, %v", v, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

// Since hands back the bytes a value was decoded from; SkipPrefix consumes
// a repeat of them, and nothing when the input differs or runs short.
func TestReaderSinceAndSkipPrefix(t *testing.T) {
	var w Buffer
	w.PutString("head")
	w.PutString("again")
	w.PutString("again")
	w.PutString("agai")
	r := NewReader(w.Bytes())
	if _, err := r.String(); err != nil {
		t.Fatal(err)
	}
	start := r.Offset()
	if s, err := r.String(); err != nil || s != "again" {
		t.Fatalf("String = %q, %v", s, err)
	}
	raw := r.Since(start)
	if len(raw) != SizeString("again") || r.Offset() != start+len(raw) {
		t.Fatalf("Since returned %d bytes, the string took %d", len(raw), SizeString("again"))
	}
	if !r.SkipPrefix(raw) {
		t.Fatal("SkipPrefix refused a repeat of the bytes just read")
	}
	at := r.Offset()
	if r.SkipPrefix(raw) || r.Offset() != at {
		t.Fatal("SkipPrefix consumed input that differs")
	}
	if s, err := r.String(); err != nil || s != "agai" || r.Remaining() != 0 {
		t.Fatalf("after the skips: String = %q, %v, %d bytes left", s, err, r.Remaining())
	}
	if r.SkipPrefix(raw) {
		t.Fatal("SkipPrefix matched past the end of the input")
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
		var w Buffer
		w.PutValue(v)
		got, err := NewReader(w.Bytes()).Value()
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTupleRoundTrip(t *testing.T) {
	s := relation.MustSchema("Document", "Id", "Title", "AuthorId")
	tu := relation.MustTuple(s, relation.N(1), relation.S("P2P Joins"), relation.N(17)).WithPubT(99)
	var w Buffer
	EncodeTuple(&w, tu)
	got, err := DecodeTuple(NewReader(w.Bytes()), nil, nil)
	if err != nil {
		t.Fatalf("DecodeTuple: %v", err)
	}
	if got.Relation() != "Document" || got.PubT() != 99 {
		t.Fatalf("tuple identity wrong: %s @%d", got, got.PubT())
	}
	for _, a := range s.Attrs() {
		if !got.MustValue(a).Equal(tu.MustValue(a)) {
			t.Fatalf("attribute %s mismatch", a)
		}
	}
	if w.Len() != SizeTuple(tu) {
		t.Fatalf("SizeTuple = %d, want %d", SizeTuple(tu), w.Len())
	}
}

func TestQueryRoundTrip(t *testing.T) {
	catalog := relation.MustCatalog(
		relation.MustSchema("R", "A", "B"),
		relation.MustSchema("S", "D", "E"),
	)
	q := query.MustParse(catalog, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND S.D >= 2`).
		WithIdentity("node9", "sim://abc", 4).WithInsT(123)

	var w Buffer
	EncodeQuery(&w, q)
	got, err := DecodeQuery(NewReader(w.Bytes()), catalog, new(Memo))
	if err != nil {
		t.Fatalf("DecodeQuery: %v", err)
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
	if w.Len() != SizeQuery(q) {
		t.Fatalf("SizeQuery = %d, want %d", SizeQuery(q), w.Len())
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
	if _, err := DecodeQuery(NewReader(w.Bytes()), catalog, new(Memo)); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

func TestTruncationErrors(t *testing.T) {
	s := relation.MustSchema("R", "A", "B")
	tu := relation.MustTuple(s, relation.N(1), relation.S("x"))
	var w Buffer
	EncodeTuple(&w, tu)
	full := w.Bytes()
	// Every strict prefix must fail cleanly, never panic.
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeTuple(NewReader(full[:cut]), nil, nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = DecodeTuple(NewReader(b), nil, nil)
		r := NewReader(b)
		_, _ = r.Value()
		_, _ = r.String()
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
	if _, err := DecodeTuple(NewReader(w.Bytes()), nil, nil); err == nil {
		t.Fatal("absurd arity accepted")
	}
	var w2 Buffer
	w2.PutString("R")
	w2.PutUvarint(0)
	if _, err := DecodeTuple(NewReader(w2.Bytes()), nil, nil); err == nil {
		t.Fatal("zero arity accepted")
	}
}

func TestSizeHelpers(t *testing.T) {
	if SizeString("abc") != 4 { // 1-byte length + 3 bytes
		t.Fatalf("SizeString = %d", SizeString("abc"))
	}
	if SizeValue(relation.N(1)) != 9 { // kind + 8 bytes
		t.Fatalf("SizeValue(number) = %d", SizeValue(relation.N(1)))
	}
	if SizeValue(relation.S("ab")) != 4 { // kind + len + 2
		t.Fatalf("SizeValue(string) = %d", SizeValue(relation.S("ab")))
	}
}
