package relation

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Tuple is one row of a relation, carrying the publication time pubT(t) set
// when the tuple is inserted into the network (Section 3.2). A tuple can
// trigger a query q iff pubT(t) >= insT(q).
type Tuple struct {
	schema *Schema
	values []Value
	pubT   int64

	// wireSize memoizes the tuple's wire-encoded length, attribute names
	// left out (wire.Coder.Tuple); 0 means not yet computed. Accessed atomically (plain int64 + atomic ops rather than
	// atomic.Int64, which would forbid the value copies tests make): one
	// tuple value is shared by every in-flight message that carries it, and
	// concurrent publishers size those messages independently.
	wireSize int64
}

// NewTuple builds a tuple of the given schema. The number of values must
// match the schema's arity.
func NewTuple(schema *Schema, values ...Value) (*Tuple, error) {
	if schema == nil {
		return nil, fmt.Errorf("relation: tuple with nil schema")
	}
	if len(values) != schema.Arity() {
		return nil, fmt.Errorf("relation: tuple of %s needs %d values, got %d",
			schema.Name(), schema.Arity(), len(values))
	}
	return &Tuple{schema: schema, values: append([]Value(nil), values...)}, nil
}

// StampedTuple builds a tuple already carrying publication time pubT (0: not
// yet published). It takes ownership of values — the caller must not touch
// the slice again — which saves a caller that built the slice for it (a
// decoder, Node.Publish, the daemon's publish op) the copy NewTuple makes.
func StampedTuple(schema *Schema, values []Value, pubT int64) (*Tuple, error) {
	if schema == nil {
		return nil, fmt.Errorf("relation: tuple with nil schema")
	}
	if len(values) != schema.Arity() {
		return nil, fmt.Errorf("relation: tuple of %s needs %d values, got %d",
			schema.Name(), schema.Arity(), len(values))
	}
	return &Tuple{schema: schema, values: values, pubT: pubT}, nil
}

// MustTuple is NewTuple that panics on error, for literals in tests and
// examples.
func MustTuple(schema *Schema, values ...Value) *Tuple {
	t, err := NewTuple(schema, values...)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the tuple's relation schema.
func (t *Tuple) Schema() *Schema { return t.schema }

// Relation returns the relation name.
func (t *Tuple) Relation() string { return t.schema.Name() }

// Values returns the attribute values in schema order.
func (t *Tuple) Values() []Value { return append([]Value(nil), t.values...) }

// ValueAt returns the value of attribute i of the tuple's schema.
func (t *Tuple) ValueAt(i int) Value { return t.values[i] }

// Value returns the value of the named attribute.
func (t *Tuple) Value(attr string) (Value, error) {
	i := t.schema.AttrIndex(attr)
	if i < 0 {
		return Value{}, fmt.Errorf("relation: %s has no attribute %s", t.schema.Name(), attr)
	}
	return t.values[i], nil
}

// MustValue is Value that panics on an unknown attribute.
func (t *Tuple) MustValue(attr string) Value {
	v, err := t.Value(attr)
	if err != nil {
		panic(err)
	}
	return v
}

// PubT returns the tuple's publication time (0 until inserted).
func (t *Tuple) PubT() int64 { return t.pubT }

// CachedWireSize returns the memoized wire-encoding length, or 0 when it
// has not been computed. Schema, values and pubT are immutable after
// construction, so a non-zero size stays valid for the tuple's lifetime.
func (t *Tuple) CachedWireSize() int { return int(atomic.LoadInt64(&t.wireSize)) }

// SetCachedWireSize memoizes the tuple's wire-encoding length.
func (t *Tuple) SetCachedWireSize(n int) { atomic.StoreInt64(&t.wireSize, int64(n)) }

// AppendContentKey appends the tuple's content key to b: its identity —
// relation, attribute names and values, publication time — rendered as
//
//	R|A1=v1|...|Ah=vh|@pubT
//
// the identity under which every tuple store absorbs duplicated deliveries
// (the value-level tuple table of SAI and DAI-Q, DAI-V's value store), and
// whose hash indexes a big store and picks a hot tuple's shard. It is built
// on every call; no tuple keeps it.
func (t *Tuple) AppendContentKey(b []byte) []byte {
	b = append(b, t.schema.name...)
	for i, v := range t.values {
		b = append(b, '|')
		b = append(b, t.schema.attrs[i]...)
		b = append(b, '=')
		b = v.AppendCanon(b)
	}
	b = append(b, '|', '@')
	return N(float64(t.pubT)).AppendCanon(b)
}

// contentKeyScratch sizes the stack buffers content keys are rendered in: a
// key that fits allocates nothing.
const contentKeyScratch = 192

// SameContent reports whether t and o have equal content keys. Tuples whose
// publication times differ (as the key renders them, through float64) are
// told apart without rendering either key — the common case in a small
// tuple store; others compare keys rendered on the stack.
func (t *Tuple) SameContent(o *Tuple) bool {
	if t == o {
		return true
	}
	if float64(t.pubT) != float64(o.pubT) {
		return false
	}
	var a, b [contentKeyScratch]byte
	return bytes.Equal(t.AppendContentKey(a[:0]), o.AppendContentKey(b[:0]))
}

// Equal reports whether t and o are the same tuple: equal schemas, values
// and publication times.
func (t *Tuple) Equal(o *Tuple) bool {
	return t == o || t.pubT == o.pubT && t.schema.Equal(o.schema) && slices.Equal(t.values, o.values)
}

// WithPubT returns a copy of the tuple stamped with publication time ts.
// The engine stamps tuples at insertion; the original is not modified. The
// copy shares the original's values — no tuple ever writes its values after
// construction, and Values hands out copies — and is built field by field: a
// struct copy would read wireSize without synchronization, and the new pubT
// invalidates the memoized size anyway.
func (t *Tuple) WithPubT(ts int64) *Tuple {
	return &Tuple{schema: t.schema, values: t.values, pubT: ts}
}

// Project returns a new tuple restricted to the named attributes in the
// given order, with a schema of its own.
func (t *Tuple) Project(attrs []string) (*Tuple, error) {
	sub, err := NewSchema(t.schema.Name(), attrs...)
	if err != nil {
		return nil, err
	}
	return t.ProjectOnto(sub)
}

// ProjectOnto returns the tuple restricted to the attributes of sub, a
// schema of the same relation (typically Schema.Projection's): "the
// projection of t on the attributes needed for the evaluation of the join"
// (Section 4.5) that rewritten queries carry. Projecting onto the tuple's
// own schema returns t itself — tuples are immutable, so sharing is safe.
func (t *Tuple) ProjectOnto(sub *Schema) (*Tuple, error) {
	if sub == t.schema {
		return t, nil
	}
	if sub.name != t.schema.name {
		return nil, fmt.Errorf("relation: cannot project a %s tuple onto %s", t.schema.name, sub)
	}
	vals := make([]Value, len(sub.attrs))
	for i, a := range sub.attrs {
		j := t.schema.AttrIndex(a)
		if j < 0 {
			return nil, fmt.Errorf("relation: %s has no attribute %s", t.schema.name, a)
		}
		vals[i] = t.values[j]
	}
	return &Tuple{schema: sub, values: vals, pubT: t.pubT}, nil
}

// String renders the tuple as Relation(v1, v2, ...).
func (t *Tuple) String() string {
	parts := make([]string, len(t.values))
	for i, v := range t.values {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s(%s)", t.schema.Name(), strings.Join(parts, ", "))
}
