package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Schema describes a relation: its name and the ordered attribute names.
// Example from Section 3.2: Document(Id, Title, Conference, AuthorId).
type Schema struct {
	name  string
	attrs []string
	index map[string]int

	// cataloged is set once a Catalog holds the schema; atomic because a
	// schema may join another catalog while its tuples are being sized.
	cataloged atomic.Bool

	// projections interns the sub-schemas Projection has handed out, so
	// every query needing the same attributes of this relation shares one
	// *Schema. Queries come in few shapes: a list searched in order.
	projMu      sync.Mutex
	projections []*Schema
}

// NewSchema builds a schema. Attribute names must be unique and non-empty.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: schema with empty name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: schema %s has no attributes", name)
	}
	s := &Schema{name: name, attrs: append([]string(nil), attrs...), index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation: schema %s has an empty attribute name", name)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("relation: schema %s repeats attribute %s", name, a)
		}
		s.index[a] = i
	}
	return s, nil
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
// schemas of Section 3.2. The zero Catalog is empty and ready to use via
// Add.
type Catalog struct {
	schemas map[string]*Schema
}

// NewCatalog builds a catalog over the given schemas.
func NewCatalog(schemas ...*Schema) (*Catalog, error) {
	c := &Catalog{schemas: make(map[string]*Schema, len(schemas))}
	for _, s := range schemas {
		if err := c.Add(s); err != nil {
			return nil, err
		}
	}
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

// Add registers a schema; relation names must be unique.
func (c *Catalog) Add(s *Schema) error {
	if c.schemas == nil {
		c.schemas = make(map[string]*Schema)
	}
	if _, dup := c.schemas[s.name]; dup {
		return fmt.Errorf("relation: catalog already has relation %s", s.name)
	}
	c.schemas[s.name] = s
	s.cataloged.Store(true)
	return nil
}

// Lookup returns the schema for a relation name, or nil.
func (c *Catalog) Lookup(name string) *Schema {
	if c.schemas == nil {
		return nil
	}
	return c.schemas[name]
}

// LookupBytes is Lookup for a name still in a decoder's buffer; it does not
// allocate.
func (c *Catalog) LookupBytes(name []byte) *Schema {
	if c == nil || c.schemas == nil {
		return nil
	}
	return c.schemas[string(name)]
}

// Schemas returns every registered schema in relation-name order.
func (c *Catalog) Schemas() []*Schema {
	names := make([]string, 0, len(c.schemas))
	for n := range c.schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Schema, len(names))
	for i, n := range names {
		out[i] = c.schemas[n]
	}
	return out
}
