package relation

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	s := S("hello")
	if s.Kind() != String || s.Str() != "hello" {
		t.Fatal("string value wrong")
	}
	n := N(3.5)
	if n.Kind() != Number || n.Num() != 3.5 {
		t.Fatal("number value wrong")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic(t, func() { S("x").Num() })
	mustPanic(t, func() { N(1).Str() })
}

func TestValueCanonNumbersTreatedAsStrings(t *testing.T) {
	// Section 4.2: numeric values are treated as strings in identifiers;
	// the canonical form must be stable across equivalent literals.
	if N(7).Canon() != N(7.0).Canon() {
		t.Fatal("7 and 7.0 canon differ")
	}
	if N(7).Canon() != "7" {
		t.Fatalf("canon(7) = %q", N(7).Canon())
	}
	if N(0.5).Canon() != "0.5" {
		t.Fatalf("canon(0.5) = %q", N(0.5).Canon())
	}
	if S("abc").Canon() != "abc" {
		t.Fatalf("canon(abc) = %q", S("abc").Canon())
	}
}

func TestValueEquality(t *testing.T) {
	if !S("a").Equal(S("a")) || S("a").Equal(S("b")) {
		t.Fatal("string equality wrong")
	}
	if !N(2).Equal(N(2)) || N(2).Equal(N(3)) {
		t.Fatal("number equality wrong")
	}
	if S("2").Equal(N(2)) {
		t.Fatal("cross-kind equality must be false")
	}
}

func TestValueCanonRoundTripProperty(t *testing.T) {
	f := func(x float64) bool {
		v := N(x)
		w := N(v.Num())
		return v.Equal(w) && v.Canon() == w.Canon()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueString(t *testing.T) {
	if S("x").String() != `"x"` {
		t.Fatalf("String = %s", S("x").String())
	}
	if N(4).String() != "4" {
		t.Fatalf("String = %s", N(4).String())
	}
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", "A"); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewSchema("R"); err == nil {
		t.Fatal("no attributes accepted")
	}
	if _, err := NewSchema("R", "A", "A"); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if _, err := NewSchema("R", ""); err == nil {
		t.Fatal("empty attribute accepted")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := MustSchema("Document", "Id", "Title", "Conference", "AuthorId")
	if s.Name() != "Document" || s.Arity() != 4 {
		t.Fatal("schema basics wrong")
	}
	if s.AttrIndex("Title") != 1 || s.AttrIndex("Nope") != -1 {
		t.Fatal("AttrIndex wrong")
	}
	if ref := s.Ref("Title"); ref == nil || *ref != (AttrRef{"Document", "Title"}) || s.Ref("Title") != ref || s.Ref("Nope") != nil {
		t.Fatal("Ref wrong: one AttrRef per attribute, nil for none")
	}
	if !s.HasAttr("Id") || s.HasAttr("X") {
		t.Fatal("HasAttr wrong")
	}
	attrs := s.Attrs()
	attrs[0] = "mutated"
	if s.AttrIndex("mutated") != -1 {
		t.Fatal("Attrs aliases internal state")
	}
	if got := s.String(); !strings.Contains(got, "Document(Id") {
		t.Fatalf("String = %s", got)
	}
}

func TestCatalog(t *testing.T) {
	d := MustSchema("Document", "Id", "Title")
	a := MustSchema("Authors", "Id", "Name")
	c := MustCatalog(d, a)
	if c.Lookup("Document") != d || c.Lookup("Authors") != a {
		t.Fatal("Lookup wrong")
	}
	if c.Lookup("Missing") != nil {
		t.Fatal("Lookup invented a schema")
	}
	if _, err := NewCatalog(d, a, MustSchema("Document", "X")); err == nil {
		t.Fatal("duplicate relation accepted")
	}
	var zero Catalog
	if zero.Lookup("x") != nil || zero.At(0) != nil || zero.Ordinal("x") != -1 {
		t.Fatal("zero catalog lookup wrong")
	}
}

// A relation's ordinal is its place in name order, whatever order the catalog
// was declared in, and the digest names the schemas: declared in another order
// it is the same, with one attribute more or renamed it is not.
func TestCatalogOrdinalsAndDigest(t *testing.T) {
	d := MustSchema("Document", "Id", "Title")
	a := MustSchema("Authors", "Id", "Name")
	c, reversed := MustCatalog(d, a), MustCatalog(a, d)
	if c.Ordinal("Authors") != 0 || c.Ordinal("Document") != 1 || c.Ordinal("Missing") != -1 {
		t.Fatalf("ordinals %d, %d, %d; want 0, 1, -1", c.Ordinal("Authors"), c.Ordinal("Document"), c.Ordinal("Missing"))
	}
	if c.At(0) != a || c.At(1) != d || c.At(2) != nil || c.At(-1) != nil {
		t.Fatal("At does not invert Ordinal")
	}
	if c.Digest() != reversed.Digest() {
		t.Fatalf("one catalog declared in two orders has digests %016x and %016x", c.Digest(), reversed.Digest())
	}
	for _, other := range []*Catalog{
		MustCatalog(d, MustSchema("Authors", "Id", "Name", "Born")),
		MustCatalog(d, MustSchema("Authors", "Id", "Surname")),
		MustCatalog(d),
	} {
		if other.Digest() == c.Digest() {
			t.Errorf("%v has the digest of %v", other.Schemas(), c.Schemas())
		}
	}
}

// A schema name is an identifier by the lexer's rule, Unicode letters
// included: anything else is a name no query could spell.
func TestSchemaNamesAreIdentifiers(t *testing.T) {
	for _, ok := range [][]string{{"Ré", "Prix"}, {"_r1", "a_2", "ß"}} {
		if _, err := NewSchema(ok[0], ok[1:]...); err != nil {
			t.Errorf("%q refused: %v", ok, err)
		}
	}
	for _, bad := range [][]string{{"R-1", "A"}, {"R", "A-1"}, {"1R", "A"}, {"R", "2"}, {"R", "A B"}, {"R", "x\xff"}, {"R.S", "A"}} {
		if _, err := NewSchema(bad[0], bad[1:]...); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestNewTupleValidation(t *testing.T) {
	s := MustSchema("R", "A", "B")
	if _, err := NewTuple(s, S("x")); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := NewTuple(nil, S("x")); err == nil {
		t.Fatal("nil schema accepted")
	}
}

func TestTupleAccessors(t *testing.T) {
	s := MustSchema("R", "A", "B")
	tp := MustTuple(s, S("x"), N(9))
	if tp.Relation() != "R" || tp.Schema() != s {
		t.Fatal("tuple schema wrong")
	}
	if v := tp.MustValue("B"); !v.Equal(N(9)) {
		t.Fatal("MustValue wrong")
	}
	if _, err := tp.Value("C"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	vals := tp.Values()
	vals[0] = N(0)
	if !tp.MustValue("A").Equal(S("x")) {
		t.Fatal("Values aliases internal state")
	}
	mustPanic(t, func() { tp.MustValue("Z") })
}

func TestTupleWithPubT(t *testing.T) {
	s := MustSchema("R", "A")
	tp := MustTuple(s, S("x"))
	if tp.PubT() != 0 {
		t.Fatal("fresh tuple has nonzero pubT")
	}
	stamped := tp.WithPubT(42)
	if stamped.PubT() != 42 || tp.PubT() != 0 {
		t.Fatal("WithPubT mutated original or failed to stamp")
	}
	if !stamped.MustValue("A").Equal(S("x")) {
		t.Fatal("WithPubT lost values")
	}
}

func TestTupleProject(t *testing.T) {
	s := MustSchema("R", "A", "B", "C")
	tp := MustTuple(s, N(1), N(2), N(3)).WithPubT(7)
	p, err := tp.Project([]string{"C", "A"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Schema().Arity() != 2 || !p.MustValue("C").Equal(N(3)) || !p.MustValue("A").Equal(N(1)) {
		t.Fatal("projection wrong")
	}
	if p.PubT() != 7 {
		t.Fatal("projection lost pubT")
	}
	if _, err := tp.Project([]string{"Z"}); err == nil {
		t.Fatal("projection onto unknown attribute accepted")
	}
}

func TestTupleString(t *testing.T) {
	s := MustSchema("R", "A", "B")
	got := MustTuple(s, S("x"), N(1)).String()
	if got != `R("x", 1)` {
		t.Fatalf("String = %s", got)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestValueAppendCanonMatchesCanon(t *testing.T) {
	f := func(s string, x float64, isStr bool) bool {
		v := N(x)
		if isStr {
			v = S(s)
		}
		return string(v.AppendCanon([]byte("k+"))) == "k+"+v.Canon()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// contentKey is tu's content key as a string.
func contentKey(tu *Tuple) string { return string(tu.AppendContentKey(nil)) }

// The content key's bytes are a contract: evaluators' dedup sets hold them
// across hand-offs and snapshots, and every process must hash a tuple to
// the same hot-key shard.
func TestTupleContentKeyFormat(t *testing.T) {
	s := MustSchema("R", "A", "B", "C")
	tp := MustTuple(s, N(7), S("x|y"), N(0.5)).WithPubT(12)
	const want = "R|A=7|B=x|y|C=0.5|@12"
	if got := contentKey(tp); got != want {
		t.Fatalf("content key = %q, want %q", got, want)
	}
	if got := string(tp.AppendContentKey([]byte("x"))); got != "x"+want {
		t.Fatalf("AppendContentKey after x = %q", got)
	}
	// Attribute names are part of the identity: a projection is not its source.
	p, err := tp.Project([]string{"A"})
	if err != nil || contentKey(p) != "R|A=7|@12" {
		t.Fatalf("projection key = %q, %v", contentKey(p), err)
	}
	if got := contentKey(tp.WithPubT(1 << 60)); got != "R|A=7|B=x|y|C=0.5|@1.152921504606847e+18" {
		t.Fatalf("large pubT key = %q", got)
	}
	long := MustTuple(s, S(strings.Repeat("v", 300)), N(1), N(2)).WithPubT(3)
	if got := contentKey(long); got != "R|A="+strings.Repeat("v", 300)+"|B=1|C=2|@3" {
		t.Fatalf("key longer than the scratch buffer = %q", got)
	}
}

// SameContent is content key equality, decided from the publication times
// alone when they differ — differ as the key renders them: two int64 times
// one float64 cannot tell apart still collide.
func TestTupleSameContentIsContentKeyEquality(t *testing.T) {
	r, s := MustSchema("R", "A", "B"), MustSchema("S", "A", "B")
	rp, _ := r.Projection([]string{"A"})
	var tuples []*Tuple
	for _, pubT := range []int64{0, 1, 2, 1 << 60, 1<<60 + 1} {
		for _, schema := range []*Schema{r, s} {
			for _, v := range []Value{N(1), N(2), S("1")} {
				tuples = append(tuples, MustTuple(schema, v, S("b")).WithPubT(pubT), MustTuple(schema, v, S("b")).WithPubT(pubT))
			}
		}
		tuples = append(tuples, MustTuple(rp, N(1)).WithPubT(pubT))
	}
	for _, a := range tuples {
		for _, b := range tuples {
			if got, want := a.SameContent(b), contentKey(a) == contentKey(b); got != want {
				t.Fatalf("SameContent(%s, %s) = %v, content keys %q and %q", a, b, got, contentKey(a), contentKey(b))
			}
		}
	}
	// Telling two stored tuples apart by time renders no key, and comparing
	// keys that fit the stack builds no string.
	a, b := MustTuple(r, N(1), S("b")).WithPubT(1), MustTuple(r, N(1), S("b")).WithPubT(2)
	c := MustTuple(r, N(1), S("b")).WithPubT(1)
	if allocs := testing.AllocsPerRun(100, func() {
		if a.SameContent(b) || !a.SameContent(c) {
			t.Fatal("SameContent disagrees with the content keys")
		}
	}); allocs != 0 {
		t.Fatalf("SameContent allocated %v times per call", allocs)
	}
}

// A tuple fills the 48-byte size class: the stores of every evaluator hold
// one per stamped publication, and the content key is not memoized in it.
func TestTupleKeepsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Tuple{}); size > 48 {
		t.Fatalf("a tuple takes %d bytes, past its 48-byte size class", size)
	}
}

// One tuple is shared by every in-flight message carrying it, so
// renderings of its content key run at once; run with -race.
func TestTupleContentKeyConcurrent(t *testing.T) {
	s := MustSchema("R", "A", "B")
	for round := 0; round < 50; round++ {
		tp := MustTuple(s, N(float64(round)), S("b")).WithPubT(int64(round))
		want := contentKey(MustTuple(s, N(float64(round)), S("b")).WithPubT(int64(round)))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := contentKey(tp); got != want {
					t.Errorf("content key = %q, want %q", got, want)
				}
			}()
		}
		wg.Wait()
	}
}

func TestSchemaProjectionInterned(t *testing.T) {
	s := MustSchema("R", "A", "B", "C")
	ab, err := s.Projection([]string{"A", "B"})
	if err != nil || ab.Name() != "R" || !ab.HasAttrs([]string{"A", "B"}) {
		t.Fatalf("Projection = %v, %v", ab, err)
	}
	if again, _ := s.Projection([]string{"A", "B"}); again != ab {
		t.Fatal("equal attribute lists got different schemas")
	}
	if ba, _ := s.Projection([]string{"B", "A"}); ba == ab || !ba.HasAttrs([]string{"B", "A"}) {
		t.Fatal("order is part of a projection's identity")
	}
	if full, _ := s.Projection([]string{"A", "B", "C"}); full != s {
		t.Fatal("the full list in order is the schema itself")
	}
	for _, bad := range [][]string{{"Z"}, {"A", "A"}, {}} {
		if _, err := s.Projection(bad); err == nil {
			t.Fatalf("projection onto %v accepted", bad)
		}
	}
	// Concurrent parsers intern through one table; run with -race.
	var wg sync.WaitGroup
	got := make([]*Schema, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], _ = s.Projection([]string{"C", "A"})
		}(g)
	}
	wg.Wait()
	for _, p := range got {
		if p == nil || p != got[0] {
			t.Fatal("concurrent Projection calls did not agree on one schema")
		}
	}
}

func TestTupleProjectOnto(t *testing.T) {
	s := MustSchema("R", "A", "B", "C")
	tp := MustTuple(s, N(1), N(2), N(3)).WithPubT(7)
	ca, _ := s.Projection([]string{"C", "A"})
	p, err := tp.ProjectOnto(ca)
	if err != nil || p.Schema() != ca || !p.ValueAt(0).Equal(N(3)) || !p.ValueAt(1).Equal(N(1)) || p.PubT() != 7 {
		t.Fatalf("ProjectOnto = %v, %v", p, err)
	}
	if same, _ := tp.ProjectOnto(s); same != tp {
		t.Fatal("projecting onto the tuple's own schema must return the tuple")
	}
	if _, err := tp.ProjectOnto(MustSchema("S", "A")); err == nil {
		t.Fatal("projection onto another relation accepted")
	}
	if _, err := tp.ProjectOnto(MustSchema("R", "Z")); err == nil {
		t.Fatal("projection onto an unknown attribute accepted")
	}
}

func TestStampedTupleAndLookupBytes(t *testing.T) {
	s := MustSchema("R", "A", "B")
	tp, err := StampedTuple(s, []Value{N(1), S("x")}, 9)
	if err != nil || tp.PubT() != 9 || !tp.MustValue("B").Equal(S("x")) {
		t.Fatalf("StampedTuple = %v, %v", tp, err)
	}
	if _, err := StampedTuple(s, []Value{N(1)}, 9); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := StampedTuple(nil, nil, 9); err == nil {
		t.Fatal("nil schema accepted")
	}
	c := MustCatalog(s)
	var none *Catalog
	if c.LookupBytes([]byte("R")) != s || c.LookupBytes([]byte("S")) != nil || none.LookupBytes([]byte("R")) != nil {
		t.Fatal("LookupBytes wrong")
	}
	if s.Attr(1) != "B" || s.HasAttrs([]string{"A"}) || s.HasAttrs([]string{"B", "A"}) || !s.HasAttrs([]string{"A", "B"}) {
		t.Fatal("Attr/HasAttrs wrong")
	}
}
