package query

import (
	"fmt"

	"cqjoin/internal/relation"
)

// plan is everything about a query that is a pure function of its parsed
// form, compiled once by Parse. It is immutable from then on, so the With*
// copy constructors share it by pointer and the per-tuple paths of the
// engine read it without re-walking the expression trees.
type plan struct {
	condKey string
	typ     Type
	side    [2]sidePlan
	sel     []selRef
	tokens  []byte // Query.Tokens, against the catalog Parse was given
}

// sidePlan is the plan's per-relation part.
type sidePlan struct {
	// attrs are the distinct attributes the side's join expression
	// references.
	attrs []string
	// needed lists the attributes required to finish evaluating the query
	// once the other side is fixed — SELECT list, join expression, selection
	// predicates, in that order — and proj is the relation's interned schema
	// over exactly that list, the shape of every trigger this side ships.
	needed []string
	proj   *relation.Schema
}

// selRef locates one SELECT attribute: its side, and its position in the
// relation's catalog schema and in the side's projection schema.
type selRef struct {
	side       Side
	name       string
	full, proj int
}

// compile builds q's plan; q's parsed fields are final.
func compile(q *Query) (*plan, error) {
	p := &plan{condKey: q.left.String() + " = " + q.right.String(), typ: T2}
	if Invertible(q.left) && Invertible(q.right) {
		p.typ = T1
	}
	for _, s := range []Side{SideLeft, SideRight} {
		sp := &p.side[s]
		rel := q.Rel(s)
		sp.attrs = distinctNames(nil, Attrs(q.Expr(s)), rel.Name())
		sp.needed = distinctNames(nil, q.sel, rel.Name())
		sp.needed = distinctNames(sp.needed, Attrs(q.Expr(s)), rel.Name())
		for _, f := range q.filters {
			if f.Rel == rel.Name() {
				sp.needed = distinctNames(sp.needed, Attrs(f.L), rel.Name())
				sp.needed = distinctNames(sp.needed, Attrs(f.R), rel.Name())
			}
		}
		proj, err := rel.Projection(sp.needed)
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		sp.proj = proj
		// Nothing may append into a list every copy of the query shares.
		sp.attrs = sp.attrs[:len(sp.attrs):len(sp.attrs)]
		sp.needed = sp.needed[:len(sp.needed):len(sp.needed)]
	}
	p.sel = make([]selRef, len(q.sel))
	for i, a := range q.sel {
		s := SideLeft
		if a.Rel == q.rightRel.Name() {
			s = SideRight
		}
		p.sel[i] = selRef{side: s, name: a.Name, full: q.Rel(s).AttrIndex(a.Name), proj: p.side[s].proj.AttrIndex(a.Name)}
	}
	return p, nil
}

// distinctNames appends to out the names of the attributes of relation rel
// among attrs that out does not hold yet, in order of first appearance.
func distinctNames(out []string, attrs []Attr, rel string) []string {
next:
	for _, a := range attrs {
		if a.Rel != rel {
			continue
		}
		for _, have := range out {
			if have == a.Name {
				continue next
			}
		}
		out = append(out, a.Name)
	}
	return out
}

// selValue reads SELECT attribute r from a tuple of its side: by position
// when the tuple has the relation's catalog schema or the plan's projection
// schema, by name for any other schema of the relation.
func (q *Query) selValue(r selRef, t *relation.Tuple) (relation.Value, error) {
	switch t.Schema() {
	case q.Rel(r.side):
		return t.ValueAt(r.full), nil
	case q.plan.side[r.side].proj:
		return t.ValueAt(r.proj), nil
	}
	return t.Value(r.name)
}
