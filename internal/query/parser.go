package query

import (
	"fmt"
	"slices"
	"strings"

	"cqjoin/internal/relation"
)

// Parse compiles a continuous equi-join query in the SQL subset of Section
// 3.2 against the given catalog:
//
//	SELECT D.Title, D.Conference
//	FROM Document AS D, Authors AS A
//	WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'
//
// The comparisons in the WHERE clause that are equalities relating
// expressions over two different FROM relations are the join conditions:
// k FROM relations need k - 1 of them, connecting the relations into one
// chain (every relation in at most two conditions, no cycles). Two relations
// are the paper's two-way query, whose one condition may be of type T2;
// longer chains (the Chapter 7 extension) need T1 conditions. Every other
// conjunct must reference a single relation and becomes a selection
// predicate. Attribute references must be qualified (alias.attribute);
// string literals use single or double quotes.
func Parse(catalog *relation.Catalog, sql string) (*Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, catalog: catalog, text: sql}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error, for literals in tests and
// examples.
func MustParse(catalog *relation.Catalog, sql string) *Query {
	q, err := Parse(catalog, sql)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks    []token
	pos     int
	catalog *relation.Catalog
	text    string
	aliases map[string]*relation.Schema // alias (and relation name) -> schema
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

// keyword consumes the next token when it is the given keyword
// (case-insensitive) and reports whether it did.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("query: expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.pos++
		return nil
	}
	return fmt.Errorf("query: expected %q, found %s", sym, t)
}

func (p *parser) symbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.pos++
		return true
	}
	return false
}

var reservedWords = map[string]bool{"select": true, "from": true, "where": true, "and": true, "as": true}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	// The FROM clause defines aliases the SELECT list needs, so scan ahead:
	// record the token range of the select list, parse FROM, then return.
	selStart := p.pos
	depth := 0
	for !p.atEOF() {
		t := p.peek()
		if t.kind == tokIdent && strings.EqualFold(t.text, "from") && depth == 0 {
			break
		}
		if t.kind == tokSymbol && t.text == "(" {
			depth++
		}
		if t.kind == tokSymbol && t.text == ")" {
			depth--
		}
		p.pos++
	}
	selEnd := p.pos
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.parseFrom(); err != nil {
		return nil, err
	}
	fromEnd := p.pos

	// Parse the recorded select list now that aliases are known.
	p.pos = selStart
	sel, err := p.parseSelectList(selEnd)
	if err != nil {
		return nil, err
	}
	p.pos = fromEnd

	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	q, err := p.parseWhere(sel)
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("query: trailing input at %s", p.peek())
	}
	q.text = p.text
	q.plan.tokens = p.tokenForm()
	return q, nil
}

func (p *parser) parseSelectList(end int) ([]Attr, error) {
	var sel []Attr
	for {
		if p.pos >= end {
			return nil, fmt.Errorf("query: empty or malformed SELECT list")
		}
		a, err := p.parseQualifiedAttr()
		if err != nil {
			return nil, err
		}
		sel = append(sel, a)
		if p.pos >= end {
			return sel, nil
		}
		if err := p.expectSymbol(","); err != nil {
			return nil, err
		}
	}
}

// parseFrom reads two or more comma-separated relation references.
func (p *parser) parseFrom() error {
	p.aliases = make(map[string]*relation.Schema, 2)
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
	// Self-joins would need tuple provenance we don't model; the paper's
	// queries always join distinct relations.
	seen := make(map[string]bool, len(p.aliases))
	for _, s := range p.aliases {
		if seen[s.Name()] {
			return fmt.Errorf("query: self-join of %s is not supported", s.Name())
		}
		seen[s.Name()] = true
	}
	return nil
}

func (p *parser) parseQualifiedAttr() (Attr, error) {
	t := p.next()
	if t.kind != tokIdent {
		return Attr{}, fmt.Errorf("query: expected alias.attribute, found %s", t)
	}
	if err := p.expectSymbol("."); err != nil {
		return Attr{}, fmt.Errorf("query: attribute references must be qualified: %w", err)
	}
	at := p.next()
	if at.kind != tokIdent {
		return Attr{}, fmt.Errorf("query: expected attribute after %s., found %s", t.text, at)
	}
	schema, ok := p.aliases[t.text]
	if !ok {
		return Attr{}, fmt.Errorf("query: unknown alias %s", t.text)
	}
	if !schema.HasAttr(at.text) {
		return Attr{}, fmt.Errorf("query: relation %s has no attribute %s", schema.Name(), at.text)
	}
	return Attr{Rel: schema.Name(), Name: at.text}, nil
}

// parseWhere splits the conjuncts into join conditions and selection
// predicates, then orders the relations along the chain the conditions form.
func (p *parser) parseWhere(sel []Attr) (*Query, error) {
	type edge struct {
		relL, relR string
		l, r       Expr
	}
	var edgeBuf [4]edge // a short chain's conditions stay on the stack
	edges := edgeBuf[:0]
	q := &Query{sel: sel}
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
			q.filters = append(q.filters, Predicate{Rel: rel, Op: op, L: l, R: r})
		}
		if !p.keyword("AND") {
			break
		}
	}

	// The join conditions must connect all FROM relations into one chain:
	// no relation in more than two, and a walk from an endpoint along them
	// reaches every relation.
	k := len(p.aliases)
	if len(edges) == 0 {
		return nil, fmt.Errorf("query: WHERE clause has no join condition")
	}
	if len(edges) != k-1 {
		return nil, fmt.Errorf("query: %d relations need exactly %d join conditions, got %d", k, k-1, len(edges))
	}
	// Two relations keep the orientation their condition is written in, α = β
	// (Section 3.2); a longer chain starts at its lexicographically smaller
	// endpoint, a canonical orientation the engine may reverse when indexing.
	start := edges[0].relL
	if k > 2 {
		start = ""
	}
	for _, e := range edges {
		for _, rel := range [2]string{e.relL, e.relR} {
			n := 0
			for _, f := range edges {
				if f.relL == rel || f.relR == rel {
					n++
				}
			}
			if n > 2 {
				return nil, fmt.Errorf("query: relation %s appears in %d join conditions; only chains are supported", rel, n)
			}
			if k > 2 && n == 1 && (start == "" || rel < start) {
				start = rel
			}
		}
	}
	rels := make([]relPlan, 0, k)
	cur := start
	for len(rels) < k-1 {
		i := slices.IndexFunc(edges, func(e edge) bool { return e.relL == cur || e.relR == cur })
		if i < 0 {
			return nil, fmt.Errorf("query: join conditions do not form a single chain over the FROM relations")
		}
		e := edges[i]
		edges = slices.Delete(edges, i, i+1)
		link, next := Link{L: e.l, R: e.r}, e.relR
		if cur == e.relR {
			link, next = Link{L: e.r, R: e.l}, e.relL
		}
		if k > 2 && (!Invertible(link.L) || !Invertible(link.R)) {
			return nil, fmt.Errorf("query: chain condition %s = %s is not invertible (type T2); multi-way evaluation needs T1 sides", e.l, e.r)
		}
		rels = append(rels, relPlan{schema: p.schemaOf(cur), link: link})
		cur = next
	}
	rels = append(rels, relPlan{schema: p.schemaOf(cur)})
	var err error
	if q.plan, err = compile(q, rels); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) schemaOf(rel string) *relation.Schema {
	for _, s := range p.aliases {
		if s.Name() == rel {
			return s
		}
	}
	return nil
}

// parseExpr parses + and - over terms.
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.pos++
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: t.text[0], L: l, R: r}
			continue
		}
		return l, nil
	}
}

// parseTerm parses * and / over factors.
func (p *parser) parseTerm() (Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			p.pos++
			r, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: t.text[0], L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseFactor() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.pos++
		return Const{Val: relation.N(t.num)}, nil
	case t.kind == tokString:
		p.pos++
		return Const{Val: relation.S(t.text)}, nil
	case t.kind == tokSymbol && t.text == "-":
		p.pos++
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return Neg{X: inner}, nil
	case t.kind == tokSymbol && t.text == "(":
		p.pos++
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case t.kind == tokIdent:
		return p.parseQualifiedAttr()
	default:
		return nil, fmt.Errorf("query: expected expression, found %s", t)
	}
}
