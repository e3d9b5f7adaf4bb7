package query

import (
	"fmt"
	"strings"

	"cqjoin/internal/relation"
)

// Parse compiles a continuous two-way equi-join query in the SQL subset of
// Section 3.2 against the given catalog:
//
//	SELECT D.Title, D.Conference
//	FROM Document AS D, Authors AS A
//	WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'
//
// Exactly one comparison in the WHERE clause must be an equality relating
// expressions over the two different FROM relations — the join condition.
// Every other conjunct must reference a single relation and becomes a
// selection predicate. Attribute references must be qualified
// (alias.attribute); string literals use single or double quotes.
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

func (p *parser) parseFrom() error {
	p.aliases = make(map[string]*relation.Schema, 2)
	for i := 0; i < 2; i++ {
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
		if i == 0 {
			if err := p.expectSymbol(","); err != nil {
				return fmt.Errorf("query: a two-way join needs two FROM relations: %w", err)
			}
		}
	}
	// Self-joins would need tuple provenance we don't model; the paper's
	// queries always join two distinct relations.
	seen := make(map[string]bool, 2)
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

func (p *parser) parseWhere(sel []Attr) (*Query, error) {
	type cmp struct {
		op   CmpOp
		l, r Expr
	}
	var cmps []cmp
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
		cmps = append(cmps, cmp{op: op, l: l, r: r})
		if !p.keyword("AND") {
			break
		}
	}

	var q Query
	q.sel = sel
	joinFound := false
	for _, c := range cmps {
		lRels, rRels := Relations(c.l), Relations(c.r)
		switch {
		case len(lRels) == 1 && len(rRels) == 1 && lRels[0] != rRels[0]:
			if c.op != OpEq {
				return nil, fmt.Errorf("query: cross-relation comparison %s %s %s must be an equality", c.l, c.op, c.r)
			}
			if joinFound {
				return nil, fmt.Errorf("query: more than one join condition")
			}
			joinFound = true
			q.left, q.right = c.l, c.r
			q.leftRel = p.schemaOf(lRels[0])
			q.rightRel = p.schemaOf(rRels[0])
		case len(lRels)+len(rRels) == 0:
			return nil, fmt.Errorf("query: constant predicate %s %s %s", c.l, c.op, c.r)
		default:
			rels := append(lRels, rRels...)
			rel := rels[0]
			for _, r := range rels {
				if r != rel {
					return nil, fmt.Errorf("query: predicate %s %s %s mixes relations %s and %s", c.l, c.op, c.r, rel, r)
				}
			}
			q.filters = append(q.filters, Predicate{Rel: rel, Op: c.op, L: c.l, R: c.r})
		}
	}
	if !joinFound {
		return nil, fmt.Errorf("query: WHERE clause has no join condition")
	}
	// Validate SELECT references against the join relations.
	for _, a := range q.sel {
		if a.Rel != q.leftRel.Name() && a.Rel != q.rightRel.Name() {
			return nil, fmt.Errorf("query: SELECT references %s, not a FROM relation", a)
		}
	}
	var err error
	if q.plan, err = compile(&q); err != nil {
		return nil, err
	}
	return &q, nil
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
