package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"cqjoin/internal/relation"
)

// request is one protocol line from a client: the values of its keys "op",
// "node", "sql", "relation", "values" and "key", as requestDecoder fills it.
type request struct {
	Op       string
	Node     int
	SQL      string
	Relation string
	Key      string
	// Values holds the elements of "values" in order, nil when the line
	// said none or null. A publication takes the slice over: the decoder
	// makes a new one for every line.
	Values []relation.Value
	// odd lists the elements of "values" that are neither a string nor a
	// number, with the Go type encoding/json's interface{} gives them;
	// their place in Values holds a zero Value. Publish refuses the line,
	// naming the first.
	odd []oddValue
}

// oddValue is an element of "values" no tuple can hold: Values[i], of
// dynamic type typ ("bool", "<nil>", "[]interface {}" or
// "map[string]interface {}").
type oddValue struct {
	i   int
	typ string
}

// maxNestingDepth is encoding/json's: an array or object nested deeper is
// refused.
const maxNestingDepth = 10000

var errEndOfInput = errors.New("unexpected end of JSON input")

// requestDecoder reads a connection's request lines into one request,
// reused line after line. It accepts exactly the lines json.Unmarshal
// accepts into a struct of the request's fields, and decodes the same
// values (FuzzRequestDecoding holds it to that): keys matched exactly, else
// case-folded as encoding/json folds them, the last of duplicate keys
// winning, unknown keys skipped but held to JSON's grammar, null leaving a
// field as it was (and "values" nil). Every string of a line is copied out
// of it into one string, which each field and value is a piece of, so a
// publish line costs that string and its values slice.
type requestDecoder struct {
	req  request
	line []byte
	pos  int

	strs []byte // the line's decoded strings, back to back
	// Where each string field's last value sits in strs, valid when set.
	op, sql, rel, key span
	// The last "values" array: its elements, and whether it was null.
	vals       []pendingValue
	haveVals   bool
	nullValues bool
	keyBuf     []byte // the key being matched; scratch for a string skipped
}

type span struct {
	start, end int
	set        bool
}

// into sets *dst to the span's piece of all, if the line said the field.
func (s span) into(dst *string, all string) {
	if s.set {
		*dst = all[s.start:s.end]
	}
}

// pendingValue is one element of "values" until the line's string exists:
// a number, a string at strs[start:end], or an odd value of type odd.
type pendingValue struct {
	num        float64
	start, end int
	str        bool
	odd        string
}

// decode parses one line. On success the returned request is the
// decoder's own, valid until the next call; on failure the error says why
// the line is not a request.
func (d *requestDecoder) decode(line []byte) (*request, error) {
	d.req = request{odd: d.req.odd[:0]}
	d.line, d.pos = line, 0
	d.strs, d.vals = d.strs[:0], d.vals[:0]
	d.op, d.sql, d.rel, d.key = span{}, span{}, span{}, span{}
	d.haveVals, d.nullValues = false, false

	d.space()
	var err error
	switch {
	case d.peek() == '{':
		err = d.object()
	case d.literal("null"):
		// The zero request.
	default:
		if err = d.skip(1, false); err == nil {
			err = errors.New("a request is a JSON object")
		}
	}
	if err == nil {
		if d.space(); d.pos < len(d.line) {
			err = d.unexpected("after top-level value")
		}
	}
	if err != nil {
		return nil, err
	}

	all := string(d.strs) // the one allocation every string of the line shares
	d.op.into(&d.req.Op, all)
	d.sql.into(&d.req.SQL, all)
	d.rel.into(&d.req.Relation, all)
	d.key.into(&d.req.Key, all)
	if d.haveVals && !d.nullValues {
		d.req.Values = make([]relation.Value, len(d.vals))
		for i, v := range d.vals {
			switch {
			case v.odd != "":
				d.req.odd = append(d.req.odd, oddValue{i, v.odd})
			case v.str:
				d.req.Values[i] = relation.S(all[v.start:v.end])
			default:
				d.req.Values[i] = relation.N(v.num)
			}
		}
	}
	return &d.req, nil
}

// The fields of a request, by key.
const (
	fieldNone = iota
	fieldOp
	fieldNode
	fieldSQL
	fieldRelation
	fieldValues
	fieldKey
)

var fieldNames = [...]string{fieldOp: "op", fieldNode: "node", fieldSQL: "sql", fieldRelation: "relation", fieldValues: "values", fieldKey: "key"}

// fieldOf matches a decoded key to a field: exactly, else as bytes.EqualFold
// matches, which is how encoding/json folds a key it has no exact field for
// ("ſql" is "sql", "\u212aey" is "key").
func fieldOf(key []byte) int {
	for f := fieldOp; f < len(fieldNames); f++ {
		if string(key) == fieldNames[f] {
			return f
		}
	}
	for f := fieldOp; f < len(fieldNames); f++ {
		if bytes.EqualFold(key, []byte(fieldNames[f])) {
			return f
		}
	}
	return fieldNone
}

// object decodes the top-level object.
func (d *requestDecoder) object() error {
	return d.each(1, func() error {
		switch f := fieldOf(d.keyBuf); f {
		case fieldOp:
			return d.stringField(&d.op, f)
		case fieldSQL:
			return d.stringField(&d.sql, f)
		case fieldRelation:
			return d.stringField(&d.rel, f)
		case fieldKey:
			return d.stringField(&d.key, f)
		case fieldNode:
			return d.node()
		case fieldValues:
			return d.values()
		}
		return d.skip(2, false)
	})
}

// each steps through the object or array at pos, nested depth deep (the
// top-level value is at 1), calling value at each of its values: an
// object's with its key decoded into keyBuf.
func (d *requestDecoder) each(depth int, value func() error) error {
	if depth > maxNestingDepth {
		return errors.New("exceeded max depth")
	}
	isObject, end := d.peek() == '{', byte(']')
	if isObject {
		end = '}'
	}
	d.pos++
	if d.space(); d.peek() == end {
		d.pos++
		return nil
	}
	for {
		d.space()
		if isObject {
			if d.peek() != '"' {
				return d.unexpected("looking for beginning of object key string")
			}
			var err error
			if d.keyBuf, err = d.str(d.keyBuf[:0]); err != nil {
				return err
			}
			if d.space(); d.peek() != ':' {
				return d.unexpected("after object key")
			}
			d.pos++
			d.space()
		}
		if err := value(); err != nil {
			return err
		}
		switch d.space(); d.peek() {
		case ',':
			d.pos++
		case end:
			d.pos++
			return nil
		default:
			return d.unexpected("after object key:value pair or array element")
		}
	}
}

// stringField decodes a string field's value into strs; null leaves the
// field as it was.
func (d *requestDecoder) stringField(s *span, f int) error {
	if d.peek() != '"' {
		return d.mismatch(f, "string")
	}
	start := len(d.strs)
	var err error
	if d.strs, err = d.str(d.strs); err != nil {
		return err
	}
	*s = span{start, len(d.strs), true}
	return nil
}

// node decodes "node": an integer literal that fits an int, or null.
func (d *requestDecoder) node() error {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return d.mismatch(fieldNode, "number")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	if d.req.Node, err = strconv.Atoi(string(lit)); err != nil {
		return fmt.Errorf("field node: %s is not an int", lit)
	}
	return nil
}

// values decodes "values": an array, or null.
func (d *requestDecoder) values() error {
	if d.peek() != '[' {
		if err := d.mismatch(fieldValues, "array"); err != nil {
			return err
		}
		d.haveVals, d.nullValues = true, true
		return nil
	}
	d.haveVals, d.nullValues = true, false
	d.vals = d.vals[:0]
	return d.each(2, func() error {
		var v pendingValue
		switch c := d.peek(); {
		case c == '"':
			v.start = len(d.strs)
			var err error
			if d.strs, err = d.str(d.strs); err != nil {
				return err
			}
			v.end, v.str = len(d.strs), true
		case c == '-' || '0' <= c && c <= '9':
			lit, err := d.number()
			if err != nil {
				return err
			}
			if v.num, err = parseFloat(lit); err != nil {
				return err
			}
		default:
			v.odd = oddType(c)
			if err := d.skip(3, true); err != nil {
				return err
			}
		}
		d.vals = append(d.vals, v)
		return nil
	})
}

// mismatch is the error for field f's value, not a want, or nil for a
// null, which leaves the field as it was.
func (d *requestDecoder) mismatch(f int, want string) error {
	if d.literal("null") {
		return nil
	}
	if err := d.skip(2, false); err != nil {
		return err
	}
	return fmt.Errorf("field %s is not a %s", fieldNames[f], want)
}

// oddType is the type encoding/json's interface{} gives a value that starts
// with c and is neither a string nor a number.
func oddType(c byte) string {
	switch c {
	case 't', 'f':
		return "bool"
	case '[':
		return "[]interface {}"
	case '{':
		return "map[string]interface {}"
	}
	return "<nil>" // or not a value: skip refuses it
}

// parseFloat converts a number literal as encoding/json does for an
// interface{}: to the nearest float64, refused past its range.
func parseFloat(lit []byte) (float64, error) {
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("%s is not a float64", lit)
	}
	return f, nil
}

// skip validates one value of any kind and steps over it. A container it
// opens is nested depth deep; nums also holds its numbers to float64's
// range, as decoding into an interface{} does.
func (d *requestDecoder) skip(depth int, nums bool) error {
	switch c := d.peek(); {
	case c == '"':
		var err error
		d.keyBuf, err = d.str(d.keyBuf[:0])
		return err
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number()
		if err == nil && nums {
			_, err = parseFloat(lit)
		}
		return err
	case c == '[' || c == '{':
		return d.each(depth, func() error { return d.skip(depth+1, nums) })
	case d.literal("true"), d.literal("false"), d.literal("null"):
		return nil
	}
	return d.unexpected("looking for beginning of value")
}

// str decodes the string at pos and appends it to dst as encoding/json
// unquotes it: escapes resolved, a \u surrogate pair combined and any
// other surrogate escape, like each byte of invalid UTF-8, made U+FFFD.
func (d *requestDecoder) str(dst []byte) ([]byte, error) {
	s := d.line
	i := d.pos + 1 // past '"'
	start := i
	for {
		if i >= len(s) {
			d.pos = i
			return dst, errEndOfInput
		}
		c := s[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return append(dst, s[start:i]...), nil
		case c < ' ':
			d.pos = i
			return dst, d.unexpected("in string literal")
		case c == '\\':
			dst = append(dst, s[start:i]...)
			d.pos = i + 1 // where an error in the escape is
			switch e := d.peek(); {
			case unescaped[e] != 0:
				dst = append(dst, unescaped[e])
				i += 2
			case e == 'u':
				r := getu4(s[i:])
				if r < 0 {
					return dst, d.unexpected("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(s[i:])); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				dst = utf8.AppendRune(dst, r)
			default:
				return dst, d.unexpected("in string escape code")
			}
			start = i
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(append(dst, s[start:i]...), "\uFFFD"...)
				start = i + 1
			}
			i += size
		}
	}
}

// unescaped maps the byte after a backslash to what it stands for, 0 for
// none ('u' is read by getu4).
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// getu4 decodes the \uXXXX escape s starts with, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// number steps over the number literal at pos, held to JSON's grammar,
// and returns it.
func (d *requestDecoder) number() ([]byte, error) {
	s, start := d.line, d.pos
	i := start
	digits := func() bool {
		j := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case !digits():
		d.pos = i
		return nil, d.unexpected("in numeric literal")
	}
	if i < len(s) && s[i] == '.' {
		if i++; !digits() {
			d.pos = i
			return nil, d.unexpected("after decimal point in numeric literal")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return nil, d.unexpected("in exponent of numeric literal")
		}
	}
	d.pos = i
	return s[start:i], nil
}

// literal steps over lit if the line says it at pos.
func (d *requestDecoder) literal(lit string) bool {
	if len(d.line)-d.pos >= len(lit) && string(d.line[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// space steps over JSON whitespace.
func (d *requestDecoder) space() {
	for d.pos < len(d.line) {
		switch d.line[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at pos, or 0 at the end of the line.
func (d *requestDecoder) peek() byte {
	if d.pos < len(d.line) {
		return d.line[d.pos]
	}
	return 0
}

// unexpected is the syntax error at pos, worded as encoding/json words it.
func (d *requestDecoder) unexpected(context string) error {
	if d.pos >= len(d.line) {
		return errEndOfInput
	}
	return fmt.Errorf("invalid character %q %s", d.line[d.pos], context)
}
