package daemon

import (
	"encoding/json"
	"fmt"
	"strconv"

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

// jsonLine is what json.Unmarshal decodes a request line into.
type jsonLine struct {
	Op       string        `json:"op"`
	Node     int           `json:"node"`
	SQL      string        `json:"sql"`
	Relation string        `json:"relation"`
	Values   []interface{} `json:"values"`
	Key      string        `json:"key"`
}

// requestDecoder reads a connection's request lines into one request,
// reused line after line. A line means what json.Unmarshal makes of it
// into a jsonLine, and every line not in the plain form goes there. The
// plain form is an object whose keys are request fields, each spelled
// exactly and given once, whose strings are printable ASCII with no
// backslash, whose "node" is an integer and whose "values" holds only such
// strings and numbers; it is decoded in one pass, every string of the line
// copied into one string that each field and value is a piece of, so a
// publish line costs that string and its values slice.
// FuzzRequestDecoding holds the pass to encoding/json.
type requestDecoder struct {
	req  request
	line []byte
	pos  int

	strs []byte // the line's strings, back to back
	vals []pendingValue
}

// span is where a string sits in strs.
type span struct{ start, end int }

func (s span) in(all string) string { return all[s.start:s.end] }

// pendingValue is one element of "values" until the line's string exists:
// a number, or the string at span of strs.
type pendingValue struct {
	num float64
	span
	str bool
}

// decode parses one line. On success the returned request is the
// decoder's own, valid until the next call; on failure the error is
// encoding/json's.
func (d *requestDecoder) decode(line []byte) (*request, error) {
	if d.plain(line) {
		return &d.req, nil
	}
	if err := d.unmarshal(line); err != nil {
		return nil, err
	}
	return &d.req, nil
}

// unmarshal decodes a line not in the plain form into d.req, with
// json.Unmarshal.
func (d *requestDecoder) unmarshal(line []byte) error {
	var j jsonLine
	if err := json.Unmarshal(line, &j); err != nil {
		return err
	}
	d.req = request{Op: j.Op, Node: j.Node, SQL: j.SQL, Relation: j.Relation, Key: j.Key}
	if j.Values != nil {
		d.req.Values = make([]relation.Value, len(j.Values))
		for i, v := range j.Values {
			switch v := v.(type) {
			case string:
				d.req.Values[i] = relation.S(v)
			case float64:
				d.req.Values[i] = relation.N(v)
			default:
				d.req.odd = append(d.req.odd, oddValue{i, fmt.Sprintf("%T", v)})
			}
		}
	}
	return nil
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

// plain decodes line into d.req and reports true if the line is in the
// plain form; it reports false for any other line, leaving d.req dirty.
func (d *requestDecoder) plain(line []byte) bool {
	d.req = request{}
	d.line, d.pos = line, 0
	d.strs, d.vals = d.strs[:0], d.vals[:0]
	var spans [len(fieldNames)]span
	var seen [len(fieldNames)]bool
	if !d.next('{') {
		return false
	}
	for more := !d.next('}'); more; {
		f := d.field()
		if f == fieldNone || seen[f] || !d.next(':') {
			return false
		}
		seen[f] = true
		d.space()
		var ok bool
		switch f {
		case fieldNode:
			ok = d.node()
		case fieldValues:
			ok = d.values()
		default:
			spans[f], ok = d.strValue()
		}
		if !ok {
			return false
		}
		if more = !d.next('}'); more && !d.next(',') {
			return false
		}
	}
	if d.space(); d.pos < len(line) {
		return false
	}

	all := string(d.strs) // the one allocation every string of the line shares
	d.req.Op, d.req.SQL = spans[fieldOp].in(all), spans[fieldSQL].in(all)
	d.req.Relation, d.req.Key = spans[fieldRelation].in(all), spans[fieldKey].in(all)
	if seen[fieldValues] {
		d.req.Values = make([]relation.Value, len(d.vals))
		for i, v := range d.vals {
			if v.str {
				d.req.Values[i] = relation.S(v.in(all))
			} else {
				d.req.Values[i] = relation.N(v.num)
			}
		}
	}
	return true
}

// field steps over the key at pos and returns its field, fieldNone unless
// it spells one exactly.
func (d *requestDecoder) field() int {
	d.space()
	start, end, ok := d.str()
	for f := fieldOp; ok && f < len(fieldNames); f++ {
		if string(d.line[start:end]) == fieldNames[f] {
			return f
		}
	}
	return fieldNone
}

// node decodes "node": an integer literal that fits an int.
func (d *requestDecoder) node() bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	var err error // Atoi refuses a fraction or an exponent, as encoding/json does
	d.req.Node, err = strconv.Atoi(string(lit))
	return err == nil
}

// values decodes "values": an array of strings and numbers.
func (d *requestDecoder) values() bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for {
		d.space()
		var v pendingValue
		var ok bool
		if d.peek() == '"' {
			v.span, ok = d.strValue()
			v.str = true
		} else {
			var lit []byte
			if lit, ok = d.number(); ok {
				var err error
				v.num, err = strconv.ParseFloat(string(lit), 64)
				ok = err == nil
			}
		}
		if !ok {
			return false
		}
		d.vals = append(d.vals, v)
		if d.next(']') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// strValue copies the string at pos into strs and returns where it sits.
func (d *requestDecoder) strValue() (span, bool) {
	start, end, ok := d.str()
	if !ok {
		return span{}, false
	}
	s := span{len(d.strs), len(d.strs) + end - start}
	d.strs = append(d.strs, d.line[start:end]...)
	return s, true
}

// str steps over the string at pos and returns where its contents sit in
// the line, reporting false unless it is printable ASCII with no backslash.
func (d *requestDecoder) str() (start, end int, ok bool) {
	if d.peek() != '"' {
		return 0, 0, false
	}
	start = d.pos + 1
	for i := start; i < len(d.line); i++ {
		switch c := d.line[i]; {
		case c == '"':
			d.pos = i + 1
			return start, i, true
		case c < ' ' || c > '~' || c == '\\':
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// number steps over the number literal at pos, held to JSON's grammar,
// and returns it.
func (d *requestDecoder) number() ([]byte, bool) {
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
		return nil, false
	}
	if i < len(s) && s[i] == '.' {
		if i++; !digits() {
			return nil, false
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	d.pos = i
	return s[start:i], true
}

// next steps over JSON whitespace and then c, if c comes next.
func (d *requestDecoder) next(c byte) bool {
	if d.space(); d.peek() == c {
		d.pos++
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
