package query

import (
	"fmt"
	"strings"

	"cqjoin/internal/relation"
)

// This file implements the multi-way extension the thesis names as future
// work (Chapter 7) and the authors later published as "Continuous
// Multi-Way Joins over Distributed Hash Tables": continuous equi-join
// queries over k >= 2 relations whose join graph forms a chain,
//
//	SELECT ... FROM R1, ..., Rk
//	WHERE e1(R1) = f1(R2) AND e2(R2) = f2(R3) AND ... [AND pred ...]
//
// A MultiQuery is evaluated by the pipeline generalization of SAI: it is
// indexed under an endpoint relation's join attribute; each matching tuple
// strips one relation off the chain and reindexes the remainder at the
// value level, until a complete combination produces a notification.

// Link is one edge of the join chain: an equality between an expression
// over the chain's i-th relation (L) and one over its (i+1)-th (R). Both
// sides must be invertible single-attribute expressions (type T1 per side).
type Link struct {
	L, R Expr
}

// MultiQuery is a continuous chain equi-join over k relations. Build one
// with ParseMulti; attach identity with WithIdentity before indexing.
type MultiQuery struct {
	key          string
	subscriber   string
	subscriberIP string
	insT         int64

	sel     []Attr
	rels    []*relation.Schema // pipeline order; links[i] joins rels[i] with rels[i+1]
	links   []Link
	filters []Predicate
	text    string
}

// ParseMulti compiles a chain equi-join over two or more relations. The
// cross-relation equalities in the WHERE clause must connect the FROM
// relations into a single chain (every relation in at most two join
// conditions, no cycles); remaining conjuncts become selection predicates
// over single relations. Two-relation inputs are accepted and behave like
// the two-way Parse.
func ParseMulti(catalog *relation.Catalog, sql string) (*MultiQuery, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, catalog: catalog, text: sql}
	mq, err := p.parseMultiQuery()
	if err != nil {
		return nil, err
	}
	return mq, nil
}

// MustParseMulti is ParseMulti that panics on error.
func MustParseMulti(catalog *relation.Catalog, sql string) *MultiQuery {
	mq, err := ParseMulti(catalog, sql)
	if err != nil {
		panic(err)
	}
	return mq
}

func (p *parser) parseMultiQuery() (*MultiQuery, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	selStart := p.pos
	for !p.atEOF() {
		t := p.peek()
		if t.kind == tokIdent && strings.EqualFold(t.text, "from") {
			break
		}
		p.pos++
	}
	selEnd := p.pos
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.parseFromN(); err != nil {
		return nil, err
	}
	fromEnd := p.pos
	p.pos = selStart
	sel, err := p.parseSelectList(selEnd)
	if err != nil {
		return nil, err
	}
	p.pos = fromEnd
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	mq, err := p.parseMultiWhere(sel)
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("query: trailing input at %s", p.peek())
	}
	mq.text = p.text
	return mq, nil
}

// parseFromN reads two or more comma-separated relation references.
func (p *parser) parseFromN() error {
	p.aliases = make(map[string]*relation.Schema, 3)
	for {
		t := p.next()
		if t.kind != tokIdent {
			return fmt.Errorf("query: expected relation name, found %s", t)
		}
		schema := p.catalog.Lookup(t.text)
		if schema == nil {
			return fmt.Errorf("query: unknown relation %s", t.text)
		}
		alias := t.text
		if p.keyword("AS") {
			at := p.next()
			if at.kind != tokIdent {
				return fmt.Errorf("query: expected alias after AS, found %s", at)
			}
			alias = at.text
		} else if t2 := p.peek(); t2.kind == tokIdent && !reservedWords[strings.ToLower(t2.text)] {
			alias = p.next().text
		}
		if _, dup := p.aliases[alias]; dup {
			return fmt.Errorf("query: duplicate alias %s", alias)
		}
		p.aliases[alias] = schema
		if !p.symbol(",") {
			break
		}
	}
	if len(p.aliases) < 2 {
		return fmt.Errorf("query: a join needs at least two FROM relations")
	}
	seen := make(map[string]bool, len(p.aliases))
	for _, s := range p.aliases {
		if seen[s.Name()] {
			return fmt.Errorf("query: self-join of %s is not supported", s.Name())
		}
		seen[s.Name()] = true
	}
	return nil
}

// parseMultiWhere splits the conjuncts into chain links and selection
// predicates, then orders the relations along the chain.
func (p *parser) parseMultiWhere(sel []Attr) (*MultiQuery, error) {
	type edge struct {
		relL, relR string
		l, r       Expr
	}
	var edges []edge
	var filters []Predicate
	for {
		l, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokSymbol {
			return nil, fmt.Errorf("query: expected comparison operator, found %s", t)
		}
		op := CmpOp(t.text)
		switch op {
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		default:
			return nil, fmt.Errorf("query: unknown comparison operator %q", t.text)
		}
		r, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		lRels, rRels := Relations(l), Relations(r)
		switch {
		case len(lRels) == 1 && len(rRels) == 1 && lRels[0] != rRels[0]:
			if op != OpEq {
				return nil, fmt.Errorf("query: cross-relation comparison %s %s %s must be an equality", l, op, r)
			}
			edges = append(edges, edge{relL: lRels[0], relR: rRels[0], l: l, r: r})
		case len(lRels)+len(rRels) == 0:
			return nil, fmt.Errorf("query: constant predicate %s %s %s", l, op, r)
		default:
			rels := append(lRels, rRels...)
			rel := rels[0]
			for _, rr := range rels {
				if rr != rel {
					return nil, fmt.Errorf("query: predicate %s %s %s mixes relations %s and %s", l, op, r, rel, rr)
				}
			}
			filters = append(filters, Predicate{Rel: rel, Op: op, L: l, R: r})
		}
		if !p.keyword("AND") {
			break
		}
	}

	// The join edges must connect all FROM relations into one chain.
	relCount := len(p.aliases)
	if len(edges) != relCount-1 {
		return nil, fmt.Errorf("query: %d relations need exactly %d join conditions, got %d",
			relCount, relCount-1, len(edges))
	}
	adj := make(map[string][]int) // relation -> edge indexes
	for i, e := range edges {
		adj[e.relL] = append(adj[e.relL], i)
		adj[e.relR] = append(adj[e.relR], i)
	}
	var endpoints []string
	for rel, es := range adj {
		switch len(es) {
		case 1:
			endpoints = append(endpoints, rel)
		case 2:
		default:
			return nil, fmt.Errorf("query: relation %s appears in %d join conditions; only chains are supported", rel, len(es))
		}
	}
	if len(adj) != relCount || (relCount > 1 && len(endpoints) != 2) {
		return nil, fmt.Errorf("query: join conditions do not form a single chain over the FROM relations")
	}
	// Walk the chain from the lexicographically smaller endpoint for a
	// canonical orientation; the engine may reverse it when indexing.
	start := endpoints[0]
	if endpoints[1] < start {
		start = endpoints[1]
	}
	var mq MultiQuery
	mq.sel = sel
	mq.filters = filters
	used := make([]bool, len(edges))
	cur := start
	mq.rels = append(mq.rels, p.schemaOf(cur))
	for len(mq.rels) < relCount {
		advanced := false
		for i, e := range edges {
			if used[i] {
				continue
			}
			var lExpr, rExpr Expr
			var next string
			switch cur {
			case e.relL:
				lExpr, rExpr, next = e.l, e.r, e.relR
			case e.relR:
				lExpr, rExpr, next = e.r, e.l, e.relL
			default:
				continue
			}
			used[i] = true
			if !Invertible(lExpr) || !Invertible(rExpr) {
				return nil, fmt.Errorf("query: chain condition %s = %s is not invertible (type T2); multi-way evaluation needs T1 sides", e.l, e.r)
			}
			mq.links = append(mq.links, Link{L: lExpr, R: rExpr})
			mq.rels = append(mq.rels, p.schemaOf(next))
			cur = next
			advanced = true
			break
		}
		if !advanced {
			return nil, fmt.Errorf("query: join conditions do not form a single chain over the FROM relations")
		}
	}
	for _, a := range mq.sel {
		if mq.relIndex(a.Rel) < 0 {
			return nil, fmt.Errorf("query: SELECT references %s, not a FROM relation", a)
		}
	}
	return &mq, nil
}

// WithIdentity returns a copy carrying the subscriber identity and Key(q).
func (mq *MultiQuery) WithIdentity(subscriberKey, subscriberIP string, seq int) *MultiQuery {
	cp := *mq
	cp.subscriber = subscriberKey
	cp.subscriberIP = subscriberIP
	cp.key = fmt.Sprintf("%s#%d", subscriberKey, seq)
	return &cp
}

// WithInsT returns a copy stamped with insertion time insT.
func (mq *MultiQuery) WithInsT(insT int64) *MultiQuery {
	cp := *mq
	cp.insT = insT
	return &cp
}

// WithRestoredIdentity returns a copy carrying a previously assigned key
// and subscriber identity, used when a query is decoded from its wire
// form.
func (mq *MultiQuery) WithRestoredIdentity(key, subscriberKey, subscriberIP string) *MultiQuery {
	cp := *mq
	cp.key = key
	cp.subscriber = subscriberKey
	cp.subscriberIP = subscriberIP
	return &cp
}

// Key returns Key(q), or "" before WithIdentity.
func (mq *MultiQuery) Key() string { return mq.key }

// Subscriber returns the key of the node that posed the query.
func (mq *MultiQuery) Subscriber() string { return mq.subscriber }

// SubscriberIP returns the subscriber's address at submission time.
func (mq *MultiQuery) SubscriberIP() string { return mq.subscriberIP }

// InsT returns the insertion time.
func (mq *MultiQuery) InsT() int64 { return mq.insT }

// Text returns the original SQL text.
func (mq *MultiQuery) Text() string { return mq.text }

// Select returns the projection list.
func (mq *MultiQuery) Select() []Attr { return append([]Attr(nil), mq.sel...) }

// Arity returns the number of joined relations k.
func (mq *MultiQuery) Arity() int { return len(mq.rels) }

// Rels returns the relations in pipeline order.
func (mq *MultiQuery) Rels() []*relation.Schema { return append([]*relation.Schema(nil), mq.rels...) }

// Rel returns Rels()[i] without copying the slice.
func (mq *MultiQuery) Rel(i int) *relation.Schema { return mq.rels[i] }

// Links returns the chain's join conditions; Links()[i] relates Rels()[i]
// to Rels()[i+1].
func (mq *MultiQuery) Links() []Link { return append([]Link(nil), mq.links...) }

// Filters returns the selection predicates.
func (mq *MultiQuery) Filters() []Predicate { return append([]Predicate(nil), mq.filters...) }

// Reverse returns the query with the pipeline orientation flipped — the
// other endpoint becomes the index relation.
func (mq *MultiQuery) Reverse() *MultiQuery {
	cp := *mq
	cp.rels = make([]*relation.Schema, len(mq.rels))
	cp.links = make([]Link, len(mq.links))
	for i, r := range mq.rels {
		cp.rels[len(mq.rels)-1-i] = r
	}
	for i, l := range mq.links {
		cp.links[len(mq.links)-1-i] = Link{L: l.R, R: l.L}
	}
	return &cp
}

// relIndex returns the pipeline position of a relation, or -1.
func (mq *MultiQuery) relIndex(rel string) int {
	for i, r := range mq.rels {
		if r.Name() == rel {
			return i
		}
	}
	return -1
}

// IndexAttr returns the join attribute of the pipeline's first relation —
// the attribute the query is indexed under.
func (mq *MultiQuery) IndexAttr() (string, error) {
	attrs := Attrs(mq.links[0].L)
	if len(attrs) != 1 {
		return "", fmt.Errorf("query: index side of %q references %d attributes", mq.ConditionKey(), len(attrs))
	}
	return attrs[0].Name, nil
}

// StageWant computes where the pipeline continues after relation stage-1
// matched tuple t: the relation, the single join attribute, and the value
// that attribute must take. stage counts matched relations so far
// (1 <= stage < Arity; t belongs to Rels()[stage-1]).
func (mq *MultiQuery) StageWant(stage int, t *relation.Tuple) (rel, attr string, val relation.Value, err error) {
	if stage < 1 || stage >= len(mq.rels) {
		return "", "", relation.Value{}, fmt.Errorf("query: stage %d out of range [1,%d)", stage, len(mq.rels))
	}
	link := mq.links[stage-1]
	v, err := link.L.Eval(t)
	if err != nil {
		return "", "", relation.Value{}, err
	}
	want, err := Invert(link.R, v)
	if err != nil {
		return "", "", relation.Value{}, err
	}
	attrs := Attrs(link.R)
	if len(attrs) != 1 {
		return "", "", relation.Value{}, fmt.Errorf("query: non-T1 link at stage %d", stage)
	}
	return mq.rels[stage].Name(), attrs[0].Name, want, nil
}

// FiltersPass reports whether the tuple satisfies the predicates over its
// relation.
func (mq *MultiQuery) FiltersPass(t *relation.Tuple) (bool, error) {
	for _, f := range mq.filters {
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

// NeededAttrs returns the attributes of one relation required by the
// SELECT list, its chain links and its selection predicates.
func (mq *MultiQuery) NeededAttrs(rel string) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(a Attr) {
		if a.Rel == rel && !seen[a.Name] {
			seen[a.Name] = true
			out = append(out, a.Name)
		}
	}
	for _, a := range mq.sel {
		add(a)
	}
	for _, l := range mq.links {
		for _, a := range Attrs(l.L) {
			add(a)
		}
		for _, a := range Attrs(l.R) {
			add(a)
		}
	}
	for _, f := range mq.filters {
		for _, a := range Attrs(f.L) {
			add(a)
		}
		for _, a := range Attrs(f.R) {
			add(a)
		}
	}
	return out
}

// ProjectNotification computes the SELECT projection over one matched
// tuple per relation, aligned with Rels().
func (mq *MultiQuery) ProjectNotification(tuples []*relation.Tuple) ([]relation.Value, error) {
	if len(tuples) != len(mq.rels) {
		return nil, fmt.Errorf("query: combination of %d tuples for %d relations", len(tuples), len(mq.rels))
	}
	byRel := make(map[string]*relation.Tuple, len(tuples))
	for i, t := range tuples {
		if t.Relation() != mq.rels[i].Name() {
			return nil, fmt.Errorf("query: tuple %d is of %s, want %s", i, t.Relation(), mq.rels[i].Name())
		}
		byRel[t.Relation()] = t
	}
	out := make([]relation.Value, len(mq.sel))
	for i, a := range mq.sel {
		v, err := byRel[a.Rel].Value(a.Name)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ConditionKey renders the chain canonically for grouping.
func (mq *MultiQuery) ConditionKey() string {
	parts := make([]string, len(mq.links))
	for i, l := range mq.links {
		parts[i] = l.L.String() + " = " + l.R.String()
	}
	return strings.Join(parts, " AND ")
}

// String renders the query's SQL text.
func (mq *MultiQuery) String() string {
	if mq.text != "" {
		return mq.text
	}
	return mq.ConditionKey()
}
