package relation

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync/atomic"
	"unicode"

	"cqjoin/internal/lockdep"
)

// Schema describes a relation: its name and the ordered attribute names.
// Example from Section 3.2: Document(Id, Title, Conference, AuthorId).
type Schema struct {
	name  string
	attrs []string
	index map[string]int
	refs  []AttrRef // one per attribute, in declaration order (Ref)

	// cataloged is set once a Catalog holds the schema; atomic because a
	// schema may join another catalog while its tuples are being sized.
	cataloged atomic.Bool

	// projections interns the sub-schemas Projection has handed out, so
	// every query needing the same attributes of this relation shares one
	// *Schema. Queries come in few shapes: a list searched in order.
	projMu      lockdep.Mutex[schemaProjMu]
	projections []*Schema
}

type schemaProjMu struct{} // Schema.projMu's lock class

// NewSchema builds a schema. The relation and attribute names must be
// identifiers (isIdent), the only names a query can spell, and the attribute
// names unique.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	if !isIdent(name) {
		return nil, fmt.Errorf("relation: schema name %q is not an identifier", name)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: schema %s has no attributes", name)
	}
	s := &Schema{name: name, attrs: append([]string(nil), attrs...), index: make(map[string]int, len(attrs)), refs: make([]AttrRef, len(attrs))}
	for i, a := range attrs {
		s.refs[i] = AttrRef{Rel: name, Attr: a}
		if !isIdent(a) {
			return nil, fmt.Errorf("relation: schema %s: attribute name %q is not an identifier", name, a)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("relation: schema %s repeats attribute %s", name, a)
		}
		s.index[a] = i
	}
	return s, nil
}

// IdentStart and IdentPart are the identifier rule of the query lexer: a
// letter or '_', then letters, digits and '_'.
func IdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }

// IdentPart reports whether r may continue an identifier.
func IdentPart(r rune) bool { return IdentStart(r) || unicode.IsDigit(r) }

// isIdent reports whether s is one identifier: a name a query can spell.
func isIdent(s string) bool {
	for i, r := range s {
		if i == 0 && !IdentStart(r) || !IdentPart(r) {
			return false
		}
	}
	return s != ""
}

// MustSchema is NewSchema that panics on error, for literals in tests and
// examples.
func MustSchema(name string, attrs ...string) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the relation name.
func (s *Schema) Name() string { return s.name }

// Attrs returns the attribute names in declaration order.
func (s *Schema) Attrs() []string { return append([]string(nil), s.attrs...) }

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attr returns the name of attribute i in declaration order. Loops over a
// schema use it with Arity where the copy Attrs makes is not needed.
func (s *Schema) Attr(i int) string { return s.attrs[i] }

// Cataloged reports whether a Catalog holds s: peers run one catalog, so the
// receiver of such a schema's tuple holds its attribute names (wire.held).
func (s *Schema) Cataloged() bool { return s.cataloged.Load() }

// Equal reports whether s and o declare the same name and attribute list.
func (s *Schema) Equal(o *Schema) bool {
	return s == o || s.name == o.name && s.HasAttrs(o.attrs)
}

// HasAttrs reports whether the schema declares exactly the given attributes
// in the given order.
func (s *Schema) HasAttrs(attrs []string) bool {
	if len(attrs) != len(s.attrs) {
		return false
	}
	for i, a := range attrs {
		if s.attrs[i] != a {
			return false
		}
	}
	return true
}

// Projection returns the schema of this relation restricted to the named
// attributes in the given order. The result is interned: equal attribute
// lists yield the same *Schema (s itself for its full list), so tuples
// projected for different queries of one shape share a schema. The table
// only ever holds ordered subsets of s's attributes and lives as long as s.
func (s *Schema) Projection(attrs []string) (*Schema, error) {
	if s.HasAttrs(attrs) {
		return s, nil
	}
	for _, a := range attrs {
		if !s.HasAttr(a) {
			return nil, fmt.Errorf("relation: %s has no attribute %s", s.name, a)
		}
	}
	s.projMu.Lock()
	defer s.projMu.Unlock()
	for _, sub := range s.projections {
		if sub.HasAttrs(attrs) {
			return sub, nil
		}
	}
	sub, err := NewSchema(s.name, attrs...)
	if err != nil {
		return nil, err
	}
	s.projections = append(s.projections, sub)
	return sub, nil
}

// AttrRef names one attribute of a relation — what a rewritten query waits
// for, Section 4.3.2's DisR(q) and DisA(q).
type AttrRef struct {
	Rel, Attr string
}

// Ref returns the schema's one AttrRef for the named attribute, which every
// caller shares, or nil where the schema has no such attribute.
func (s *Schema) Ref(name string) *AttrRef {
	if i, ok := s.index[name]; ok {
		return &s.refs[i]
	}
	return nil
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// HasAttr reports whether the schema declares the attribute.
func (s *Schema) HasAttr(name string) bool { return s.AttrIndex(name) >= 0 }

// String renders the schema as Name(A1, A2, ...).
func (s *Schema) String() string {
	return fmt.Sprintf("%s(%s)", s.name, strings.Join(s.attrs, ", "))
}

// Catalog is a set of schemas addressable by relation name, the co-existing
// schemas of Section 3.2. NewCatalog builds it whole and nothing changes it
// after: a relation's ordinal, its position in name order, and the catalog's
// digest are fixed from construction, so the ordinals a parsed query's token
// form names (query.Query.Tokens) go on naming the schemas they did. The zero
// Catalog is empty.
type Catalog struct {
	schemas []*Schema // in relation-name order: a schema's index is its ordinal
	byName  map[string]int
	digest  uint64
}

// NewCatalog builds a catalog over the given schemas; relation names must be
// unique.
func NewCatalog(schemas ...*Schema) (*Catalog, error) {
	c := &Catalog{schemas: slices.Clone(schemas), byName: make(map[string]int, len(schemas))}
	slices.SortFunc(c.schemas, func(a, b *Schema) int { return strings.Compare(a.name, b.name) })
	h := fnv.New64a()
	for i, s := range c.schemas {
		if _, dup := c.byName[s.name]; dup {
			return nil, fmt.Errorf("relation: catalog already has relation %s", s.name)
		}
		c.byName[s.name] = i
		h.Write([]byte(s.String())) // identifiers hold no '(', ',' or ')': the rendering is unambiguous
	}
	for _, s := range c.schemas {
		s.cataloged.Store(true)
	}
	c.digest = h.Sum64()
	return c, nil
}

// MustCatalog is NewCatalog that panics on error.
func MustCatalog(schemas ...*Schema) *Catalog {
	c, err := NewCatalog(schemas...)
	if err != nil {
		panic(err)
	}
	return c
}

// Lookup returns the schema for a relation name, or nil.
func (c *Catalog) Lookup(name string) *Schema { return c.At(c.Ordinal(name)) }

// LookupBytes is Lookup for a name still in a decoder's buffer; it does not
// allocate.
func (c *Catalog) LookupBytes(name []byte) *Schema {
	if c == nil {
		return nil
	}
	if i, ok := c.byName[string(name)]; ok {
		return c.schemas[i]
	}
	return nil
}

// Ordinal returns the named relation's position in name order, or -1.
func (c *Catalog) Ordinal(name string) int {
	if c == nil {
		return -1
	}
	if i, ok := c.byName[name]; ok {
		return i
	}
	return -1
}

// At returns the schema of ordinal i, or nil past the catalog.
func (c *Catalog) At(i int) *Schema {
	if c == nil || i < 0 || i >= len(c.schemas) {
		return nil
	}
	return c.schemas[i]
}

// Digest names the catalog: an FNV-1a hash of every schema, names and
// attribute lists, in ordinal order. Two catalogs with one digest give every
// relation and attribute the same ordinal, so peers that exchange queries as
// ordinals compare digests first (transport's hello, durable's state
// directory).
func (c *Catalog) Digest() uint64 {
	if c == nil {
		return 0
	}
	return c.digest
}

// Schemas returns every registered schema in relation-name order.
func (c *Catalog) Schemas() []*Schema {
	if c == nil {
		return nil
	}
	return slices.Clone(c.schemas)
}
