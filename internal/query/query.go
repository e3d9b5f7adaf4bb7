package query

import (
	"fmt"
	"sync/atomic"

	"cqjoin/internal/relation"
)

// Side selects one side of a query's join condition.
type Side int

const (
	// SideLeft is the α side of the join condition α = β.
	SideLeft Side = iota
	// SideRight is the β side.
	SideRight
)

// Other returns the opposite side.
func (s Side) Other() Side {
	if s == SideLeft {
		return SideRight
	}
	return SideLeft
}

// String names the side.
func (s Side) String() string {
	if s == SideLeft {
		return "left"
	}
	return "right"
}

// Type classifies queries per Section 3.2.
type Type int

const (
	// T1 queries have a single attribute on each side of the join condition
	// and the equality has a unique solution; all four algorithms evaluate
	// them.
	T1 Type = iota
	// T2 queries involve multiple attributes or non-invertible expressions
	// on some side; only DAI-V evaluates them.
	T2
)

// String names the type.
func (t Type) String() string {
	if t == T1 {
		return "T1"
	}
	return "T2"
}

// keyScratch sizes the stack buffers the key builders append into: a key
// that fits costs exactly one allocation, its final string.
const keyScratch = 128

// Query is a continuous two-way equi-join query. Build one with Parse, then
// attach subscriber identity with WithIdentity before indexing it.
type Query struct {
	key          string
	subscriber   string
	subscriberIP string
	insT         int64

	sel      []Attr
	left     Expr
	right    Expr
	leftRel  *relation.Schema
	rightRel *relation.Schema
	filters  []Predicate
	text     string
	plan     *plan // compiled by Parse, shared by every copy

	// wireSize memoizes the wire-encoded length of the query's fields ahead
	// of its text (wire.Coder.Query); 0 means not yet computed. Accessed atomically because the query value embedded in
	// in-flight messages is sized from concurrent publishers. The With*
	// copy constructors reset it, since they change encoded fields.
	wireSize int64
}

// WithIdentity returns a copy of q carrying the subscriber's node key and
// IP plus the query's unique key, Key(q), formed per Section 3.2 by
// concatenating a positive integer to the subscriber's key.
func (q *Query) WithIdentity(subscriberKey, subscriberIP string, seq int) *Query {
	cp := *q
	cp.subscriber = subscriberKey
	cp.subscriberIP = subscriberIP
	cp.key = fmt.Sprintf("%s#%d", subscriberKey, seq)
	cp.wireSize = 0
	return &cp
}

// WithRestoredIdentity returns a copy of q carrying a previously assigned
// key and subscriber identity, used when a query is decoded from its wire
// form and its original Key(q) must be preserved.
func (q *Query) WithRestoredIdentity(key, subscriberKey, subscriberIP string) *Query {
	cp := *q
	cp.key = key
	cp.subscriber = subscriberKey
	cp.subscriberIP = subscriberIP
	cp.wireSize = 0
	return &cp
}

// WithInsT returns a copy of q stamped with insertion time insT
// (Section 3.2: only tuples with pubT(t) >= insT(q) can trigger q).
func (q *Query) WithInsT(insT int64) *Query {
	cp := *q
	cp.insT = insT
	cp.wireSize = 0
	return &cp
}

// Key returns Key(q), or "" before WithIdentity.
func (q *Query) Key() string { return q.key }

// Subscriber returns the key of the node that posed the query.
func (q *Query) Subscriber() string { return q.subscriber }

// SubscriberIP returns the (simulated) IP address of the subscriber.
func (q *Query) SubscriberIP() string { return q.subscriberIP }

// InsT returns the query's insertion time.
func (q *Query) InsT() int64 { return q.insT }

// Text returns the original SQL text.
func (q *Query) Text() string { return q.text }

// Tokens returns the token form of the query's text (tokens.go): what the
// wire says in the text's place, nil for a text that does not rebuild from
// it. The slice belongs to the query's plan: read it, do not modify it.
func (q *Query) Tokens() []byte { return q.plan.tokens }

// CachedWireSize returns the memoized wire-encoding length, or 0 when it
// has not been computed. The encoded fields are immutable outside the
// With* copy constructors, which reset the memo on their copies.
func (q *Query) CachedWireSize() int { return int(atomic.LoadInt64(&q.wireSize)) }

// SetCachedWireSize memoizes the query's wire-encoding length.
func (q *Query) SetCachedWireSize(n int) { atomic.StoreInt64(&q.wireSize, int64(n)) }

// Select returns the projection list.
func (q *Query) Select() []Attr { return append([]Attr(nil), q.sel...) }

// Expr returns the join-condition expression of the given side.
func (q *Query) Expr(s Side) Expr {
	if s == SideLeft {
		return q.left
	}
	return q.right
}

// Rel returns the relation schema of the given side.
func (q *Query) Rel(s Side) *relation.Schema {
	if s == SideLeft {
		return q.leftRel
	}
	return q.rightRel
}

// Filters returns the selection predicates conjoined with the join.
func (q *Query) Filters() []Predicate { return append([]Predicate(nil), q.filters...) }

// FiltersFor returns the selection predicates over the named relation.
func (q *Query) FiltersFor(rel string) []Predicate {
	var out []Predicate
	for _, f := range q.filters {
		if f.Rel == rel {
			out = append(out, f)
		}
	}
	return out
}

// FiltersPass reports whether the tuple satisfies every selection predicate
// over its relation.
func (q *Query) FiltersPass(t *relation.Tuple) (bool, error) {
	for _, f := range q.filters {
		if f.Rel != t.Relation() {
			continue
		}
		ok, err := f.Eval(t)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// SideFor returns the side whose relation is rel.
func (q *Query) SideFor(rel string) (Side, error) {
	switch rel {
	case q.leftRel.Name():
		return SideLeft, nil
	case q.rightRel.Name():
		return SideRight, nil
	default:
		return 0, fmt.Errorf("query: relation %s is not part of %s ⋈ %s", rel, q.leftRel.Name(), q.rightRel.Name())
	}
}

// Type classifies the query as T1 or T2 per Section 3.2.
func (q *Query) Type() Type { return q.plan.typ }

// SideAttrs returns the distinct attribute names the given side's
// expression references, candidates for the role of index attribute. The
// slice belongs to the query's plan: read it, do not modify it.
func (q *Query) SideAttrs(s Side) []string { return q.plan.side[s].attrs }

// SingleAttr returns the side's unique join attribute for a T1-style side,
// or an error when the side references several attributes.
func (q *Query) SingleAttr(s Side) (string, error) {
	attrs := q.plan.side[s].attrs
	if len(attrs) != 1 {
		return "", fmt.Errorf("query: %s side of %q references %d attributes", s, q.ConditionKey(), len(attrs))
	}
	return attrs[0], nil
}

// EvalSide computes the side's expression over a tuple of that side's
// relation — the valJC(q, t) of Section 4.5.
func (q *Query) EvalSide(s Side, t *relation.Tuple) (relation.Value, error) {
	return q.Expr(s).Eval(t)
}

// InvertSide solves the side's expression for its single attribute given
// the value the expression must produce — the valDA(q, t) computation of
// Section 4.3.2: the value attribute DisA(q) must take so the join
// condition holds.
func (q *Query) InvertSide(s Side, target relation.Value) (relation.Value, error) {
	if len(q.plan.side[s].attrs) != 1 {
		return relation.Value{}, fmt.Errorf("query: invert of multi-attribute expression %s", q.Expr(s))
	}
	return invert(q.Expr(s), target)
}

// ConditionKey renders the join condition canonically. Queries with equal
// ConditionKey have equivalent join conditions and are grouped together at
// rewriter and evaluator nodes (Section 4.3.5).
func (q *Query) ConditionKey() string { return q.plan.condKey }

// NeededAttrs returns the attributes of the named relation required to
// finish evaluating the query after the other relation's side is fixed:
// the attributes in the SELECT list, the join expression and the selection
// predicates — nil for a relation the query does not join. The slice
// belongs to the query's plan: read it, do not modify it.
func (q *Query) NeededAttrs(rel string) []string {
	s, err := q.SideFor(rel)
	if err != nil {
		return nil
	}
	return q.plan.side[s].needed
}

// Projection returns the schema of the given side's relation restricted to
// NeededAttrs — the shape of "the projection of t on the attributes needed
// for the evaluation of the join" (Section 4.5) that a rewritten query
// carries. Queries needing the same attributes share one schema.
func (q *Query) Projection(s Side) *relation.Schema { return q.plan.side[s].proj }

// appendSelectValues appends the values of the SELECT attributes that belong
// to the tuple's relation — the v1, ..., vl that name a rewritten query's
// key in Section 4.3.3.
func (q *Query) appendSelectValues(dst []relation.Value, t *relation.Tuple) ([]relation.Value, error) {
	s, err := q.SideFor(t.Relation())
	if err != nil {
		return dst, nil // not a relation of the query: no SELECT attribute is t's
	}
	for _, r := range q.plan.sel {
		if r.side != s {
			continue
		}
		v, err := q.selValue(r, t)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// RewriteKey computes the key of the rewritten query created when tuple t
// of the index relation triggers q, per Section 4.3.3:
//
//	Key(q') = Key(q) + v1 + v2 + ... + vl + valDA(q, t)
//
// where vj are the values of the index relation's SELECT attributes in t.
// Two rewritten queries share a key exactly when they were created from the
// same query by tuples with the same value of the index attribute.
func (q *Query) RewriteKey(t *relation.Tuple, valDA relation.Value) (string, error) {
	var buf [keyScratch]byte
	b, err := q.AppendRewriteKey(buf[:0], t, valDA)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AppendRewriteKey appends RewriteKey's key to dst, so a caller that only
// compares it allocates nothing.
func (q *Query) AppendRewriteKey(dst []byte, t *relation.Tuple, valDA relation.Value) ([]byte, error) {
	var scratch [8]relation.Value // SELECT lists are short: the values stay on the stack
	vals, err := q.appendSelectValues(scratch[:0], t)
	if err != nil {
		return dst, err
	}
	dst = append(dst, q.key...)
	for _, v := range vals {
		dst = append(dst, '+')
		dst = v.AppendCanon(dst)
	}
	dst = append(dst, '+')
	return valDA.AppendCanon(dst), nil
}

// ProjectNotification computes the SELECT projection over a matched pair of
// tuples, one from each relation — the answer carried by a notification.
func (q *Query) ProjectNotification(left, right *relation.Tuple) ([]relation.Value, error) {
	return q.AppendNotification(make([]relation.Value, 0, q.SelectLen()), left, right)
}

// SelectLen returns how many values a notification of q carries.
func (q *Query) SelectLen() int { return len(q.plan.sel) }

// AppendNotification appends ProjectNotification's values to dst, so a
// caller projecting a batch fills one array it sized from SelectLen. On an
// error dst comes back as it was given.
func (q *Query) AppendNotification(dst []relation.Value, left, right *relation.Tuple) ([]relation.Value, error) {
	if left.Relation() != q.leftRel.Name() || right.Relation() != q.rightRel.Name() {
		return dst, fmt.Errorf("query: ProjectNotification tuple relations %s, %s do not match %s ⋈ %s",
			left.Relation(), right.Relation(), q.leftRel.Name(), q.rightRel.Name())
	}
	n := len(dst)
	for _, r := range q.plan.sel {
		src := left
		if r.side == SideRight {
			src = right
		}
		v, err := q.selValue(r, src)
		if err != nil {
			return dst[:n], err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// String renders the query's SQL text, or the normalized condition when the
// text is unavailable.
func (q *Query) String() string {
	if q.text != "" {
		return q.text
	}
	return q.ConditionKey()
}
