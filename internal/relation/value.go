// Package relation implements the relational data model of Section 3.2:
// schemas, typed attribute values and tuples carrying a publication time.
// Data is inserted into the overlay as tuples of named relations; different
// schemas can co-exist (schema mappings are not supported, as in PIER).
package relation

import (
	"fmt"
	"strconv"
)

// Kind is the runtime type of a Value.
type Kind int

const (
	// String values compare and hash as text.
	String Kind = iota
	// Number values are float64; per Section 4.2, when used in an index
	// identifier a numeric value "is also treated as a string" via its
	// canonical rendering.
	Number
)

// Value is an attribute value: a string or a number. Values are immutable
// and comparable with ==, so they can be used as map keys in the two-level
// hash tables of Section 4.3.5.
type Value struct {
	kind Kind
	str  string
	num  float64
}

// S constructs a string value.
func S(s string) Value { return Value{kind: String, str: s} }

// N constructs a numeric value.
func N(f float64) Value { return Value{kind: Number, num: f} }

// Kind returns the value's runtime type.
func (v Value) Kind() Kind { return v.kind }

// Str returns the string content; it panics on a Number.
func (v Value) Str() string {
	if v.kind != String {
		panic("relation: Str on numeric value")
	}
	return v.str
}

// Num returns the numeric content; it panics on a String.
func (v Value) Num() float64 {
	if v.kind != Number {
		panic("relation: Num on string value")
	}
	return v.num
}

// Canon renders the value in the canonical string form used to build ring
// identifiers (VIndex = Hash(R + A + v), Section 4.2). Numbers use the
// shortest representation that round-trips, so 7 and 7.0 produce the same
// identifier.
func (v Value) Canon() string {
	if v.kind == String {
		return v.str
	}
	return strconv.FormatFloat(v.num, 'g', -1, 64)
}

// AppendCanon appends the canonical form to dst, so a key made of several
// values is built in one buffer with no intermediate strings.
func (v Value) AppendCanon(dst []byte) []byte {
	if v.kind == String {
		return append(dst, v.str...)
	}
	return strconv.AppendFloat(dst, v.num, 'g', -1, 64)
}

// Equal reports whether two values are the same constant. A String never
// equals a Number, matching SQL equality over distinct types in this
// simplified model.
func (v Value) Equal(o Value) bool { return v == o }

// String implements fmt.Stringer for logs and notification rendering.
func (v Value) String() string {
	if v.kind == String {
		return fmt.Sprintf("%q", v.str)
	}
	return v.Canon()
}
