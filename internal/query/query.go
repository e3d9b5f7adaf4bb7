package query

import (
	"fmt"
	"strings"
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

// Link is one join condition of a query: an equality between an expression
// over one relation (L) and one over the next relation of the chain (R).
type Link struct {
	L, R Expr
}

// Query is a continuous equi-join query over k >= 2 relations joined along a
// chain: Rels()[i] and Rels()[i+1] by Links()[i]. With k = 2 it is the
// paper's two-way query (Section 3.2), whose join condition α = β is
// Links()[0]; with k > 2 it is the chain join of the Chapter 7 extension. The
// two sides of a query are its chain's endpoints. Build one with Parse, then
// attach subscriber identity with WithIdentity before indexing it.
type Query struct {
	key          string
	subscriber   string
	subscriberIP string
	insT         int64

	sel     []Attr
	filters []Predicate
	text    string
	plan    *plan // the chain, compiled by Parse, shared by every copy of one orientation

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

// Expr returns the join-condition expression of the given side: the
// endpoint's side of the chain's first or last link.
func (q *Query) Expr(s Side) Expr {
	if s == SideLeft {
		return q.plan.rels[0].link.L
	}
	return q.plan.rels[len(q.plan.rels)-2].link.R
}

// Rel returns the relation schema of the given side, a chain endpoint.
func (q *Query) Rel(s Side) *relation.Schema { return q.plan.rels[q.relOf(s)].schema }

// relOf returns the chain position of the given side's relation.
func (q *Query) relOf(s Side) int {
	if s == SideLeft {
		return 0
	}
	return len(q.plan.rels) - 1
}

// relIndex returns the chain position of the named relation, or -1.
func (q *Query) relIndex(rel string) int { return relIndex(q.plan.rels, rel) }

// Arity returns the number of joined relations k.
func (q *Query) Arity() int { return len(q.plan.rels) }

// Rels returns the relations in chain order.
func (q *Query) Rels() []*relation.Schema {
	out := make([]*relation.Schema, len(q.plan.rels))
	for i, r := range q.plan.rels {
		out[i] = r.schema
	}
	return out
}

// Links returns the join conditions; Links()[i] relates Rels()[i] to
// Rels()[i+1].
func (q *Query) Links() []Link {
	out := make([]Link, len(q.plan.rels)-1)
	for i := range out {
		out[i] = q.plan.rels[i].link
	}
	return out
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
	case q.Rel(SideLeft).Name():
		return SideLeft, nil
	case q.Rel(SideRight).Name():
		return SideRight, nil
	default:
		return 0, fmt.Errorf("query: relation %s is not an endpoint of %s", rel, q.chain())
	}
}

// chain renders the relations in chain order, R ⋈ S ⋈ ...
func (q *Query) chain() string {
	names := make([]string, len(q.plan.rels))
	for i, r := range q.plan.rels {
		names[i] = r.schema.Name()
	}
	return strings.Join(names, " ⋈ ")
}

// Type classifies the query as T1 or T2 per Section 3.2.
func (q *Query) Type() Type { return q.plan.typ }

// SideAttrs returns the distinct attribute names the given side's
// expression references, candidates for the role of index attribute. The
// slice belongs to the query's plan: read it, do not modify it.
func (q *Query) SideAttrs(s Side) []string {
	if s == SideLeft {
		return q.plan.rels[0].attrs[SideLeft]
	}
	return q.plan.rels[len(q.plan.rels)-2].attrs[SideRight]
}

// SingleAttr returns the side's unique join attribute for a T1-style side,
// or an error when the side references several attributes.
func (q *Query) SingleAttr(s Side) (string, error) {
	attrs := q.SideAttrs(s)
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

// ConditionKey renders the join condition canonically. Queries with equal
// ConditionKey have equivalent join conditions and are grouped together at
// rewriter and evaluator nodes (Section 4.3.5).
func (q *Query) ConditionKey() string { return q.plan.condKey }

// NeededAttrs returns the attributes of the named relation required to
// finish evaluating the query once its tuple is fixed: the attributes in the
// SELECT list, the join conditions and the selection predicates — nil for a
// relation the query does not join. The slice belongs to the query's plan:
// read it, do not modify it.
func (q *Query) NeededAttrs(rel string) []string {
	i := q.relIndex(rel)
	if i < 0 {
		return nil
	}
	return q.plan.rels[i].needed
}

// Projection returns the schema of the given side's relation restricted to
// NeededAttrs — the shape of "the projection of t on the attributes needed
// for the evaluation of the join" (Section 4.5) that a rewritten query
// carries. Queries needing the same attributes share one schema.
func (q *Query) Projection(s Side) *relation.Schema { return q.plan.rels[q.relOf(s)].proj }

// A rewrite of a query indexed under side s walks the chain from that side's
// relation: stage i counts the relations it has matched, the last of them the
// tuple that triggered it.

// stagePos returns the chain position of the relation a rewrite indexed
// under side s matches at stage (1 <= stage <= Arity).
func (q *Query) stagePos(s Side, stage int) int {
	if s == SideLeft {
		return stage - 1
	}
	return len(q.plan.rels) - stage
}

// step returns the link a rewrite indexed under side s crosses once it has
// matched stage relations; the last of them is on the link's side s.
func (q *Query) step(s Side, stage int) (*relPlan, bool) {
	k := len(q.plan.rels)
	if stage < 1 || stage >= k {
		return nil, false
	}
	if s == SideLeft {
		return &q.plan.rels[stage-1], true
	}
	return &q.plan.rels[k-1-stage], true
}

// expr returns the link's expression on side s.
func (l Link) expr(s Side) Expr {
	if s == SideLeft {
		return l.L
	}
	return l.R
}

// StageAttr returns what a rewrite indexed under side s waits for once it
// has matched stage relations (1 <= stage < Arity): the next relation, and
// the single attribute the link names on it, as the relation's schema's one
// AttrRef for it, which every rewrite shares; ok is false outside that range
// or where the link names several.
func (q *Query) StageAttr(s Side, stage int) (want *relation.AttrRef, ok bool) {
	r, ok := q.step(s, stage)
	if !ok || len(r.attrs[s.Other()]) != 1 {
		return nil, false
	}
	want = q.plan.rels[q.stagePos(s, stage+1)].schema.Ref(r.attrs[s.Other()][0])
	return want, want != nil
}

// StageWant computes what a rewrite indexed under side s asks for once its
// stage-th relation matched tuple t: StageAttr's relation and attribute, and
// the value the link says that attribute must take. With two relations it is
// Section 4.3.2's DisR(q), DisA(q) and valDA(q, t). It fails where the
// equality has no solution for t (e.g. c/x = 0).
func (q *Query) StageWant(s Side, stage int, t *relation.Tuple) (want *relation.AttrRef, val relation.Value, err error) {
	want, ok := q.StageAttr(s, stage)
	if !ok {
		return nil, relation.Value{}, fmt.Errorf("query: no single-attribute link past stage %d of %s from its %s end", stage, q.chain(), s)
	}
	r, _ := q.step(s, stage)
	v, err := r.link.expr(s).Eval(t)
	if err != nil {
		return nil, relation.Value{}, err
	}
	if val, err = invert(r.link.expr(s.Other()), v); err != nil {
		return nil, relation.Value{}, err
	}
	return want, val, nil
}

// StageProjection returns the Projection shape of the relation a rewrite
// indexed under side s matches at stage (1 <= stage <= Arity).
func (q *Query) StageProjection(s Side, stage int) *relation.Schema {
	return q.plan.rels[q.stagePos(s, stage)].proj
}

// appendSelectValues appends the values of the SELECT attributes that belong
// to the tuple's relation — the v1, ..., vl that name a rewritten query's
// key in Section 4.3.3.
func (q *Query) appendSelectValues(dst []relation.Value, t *relation.Tuple) ([]relation.Value, error) {
	i := q.relIndex(t.Relation())
	if i < 0 {
		return dst, nil // not a relation of the query: no SELECT attribute is t's
	}
	for _, r := range q.plan.sel {
		if r.rel != i {
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

// ProjectNotification computes the SELECT projection over a matched
// combination of tuples, one per relation in chain order (a two-way query's
// left and right) — the answer carried by a notification.
func (q *Query) ProjectNotification(tuples ...*relation.Tuple) ([]relation.Value, error) {
	return q.AppendNotification(make([]relation.Value, 0, q.SelectLen()), tuples...)
}

// SelectLen returns how many values a notification of q carries.
func (q *Query) SelectLen() int { return len(q.plan.sel) }

// AppendNotification appends ProjectNotification's values to dst, so a
// caller projecting a batch fills one array it sized from SelectLen. On an
// error dst comes back as it was given.
func (q *Query) AppendNotification(dst []relation.Value, tuples ...*relation.Tuple) ([]relation.Value, error) {
	if len(tuples) != len(q.plan.rels) {
		return dst, fmt.Errorf("query: combination of %d tuples for %s", len(tuples), q.chain())
	}
	for i, t := range tuples {
		if want := q.plan.rels[i].schema.Name(); t.Relation() != want {
			return dst, fmt.Errorf("query: tuple %d is of %s, not of %s in %s", i, t.Relation(), want, q.chain())
		}
	}
	n := len(dst)
	for _, r := range q.plan.sel {
		v, err := q.selValue(r, tuples[r.rel])
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
