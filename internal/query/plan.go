package query

import (
	"fmt"

	"cqjoin/internal/relation"
)

// plan is everything about a query that is a pure function of its parsed
// form, compiled once by Parse: its chain of relations and links too. It is
// immutable from then on, so the With* copy constructors share it by pointer
// and the per-tuple paths of the engine read it without re-walking the
// expression trees.
type plan struct {
	condKey string
	typ     Type
	rels    []relPlan // one per relation, in chain order
	sel     []selRef
	tokens  []byte // Query.Tokens, against the catalog Parse was given
}

// relPlan is one relation of the chain: its schema and the join condition
// with the next relation (none on the last), which Parse fills in, and what
// compile derives — needed, the attributes required to finish evaluating the
// query once the relation's tuple is fixed (SELECT list, join conditions,
// selection predicates, in that order); proj, the relation's interned schema
// over exactly that list, the shape of every trigger it ships; and attrs, by
// side of the link, the distinct attributes link.L names on this relation
// and link.R on the next.
type relPlan struct {
	schema *relation.Schema
	link   Link
	needed []string
	proj   *relation.Schema
	attrs  [2][]string
}

// selRef locates one SELECT attribute: its relation's chain position, and
// its position in the relation's catalog schema and in its projection
// schema.
type selRef struct {
	rel        int
	name       string
	full, proj int
}

// compile builds q's plan over rels, the chain Parse read or its reverse;
// q's other parsed fields are final.
func compile(q *Query, rels []relPlan) (*plan, error) {
	p := &plan{typ: T1, rels: rels}
	links := rels[:len(rels)-1]
	for i, r := range links {
		cond := r.link.L.String() + " = " + r.link.R.String()
		if i > 0 {
			cond = p.condKey + " AND " + cond
		}
		p.condKey = cond
		if !Invertible(r.link.L) || !Invertible(r.link.R) {
			p.typ = T2
		}
	}
	for i := range links {
		l := distinctNames(nil, Attrs(rels[i].link.L), rels[i].schema.Name())
		r := distinctNames(nil, Attrs(rels[i].link.R), rels[i+1].schema.Name())
		rels[i].attrs = [2][]string{l[:len(l):len(l)], r[:len(r):len(r)]} // nothing may append into a list every copy shares
	}
	for i := range rels {
		r := &rels[i]
		name := r.schema.Name()
		needed := distinctNames(nil, q.sel, name)
		if i > 0 {
			needed = distinctNames(needed, Attrs(rels[i-1].link.R), name)
		}
		if i < len(links) {
			needed = distinctNames(needed, Attrs(r.link.L), name)
		}
		for _, f := range q.filters {
			if f.Rel == name {
				needed = distinctNames(needed, Attrs(f.L), name)
				needed = distinctNames(needed, Attrs(f.R), name)
			}
		}
		proj, err := r.schema.Projection(needed)
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		r.needed, r.proj = needed[:len(needed):len(needed)], proj // nothing may append into a list every copy shares
	}
	p.sel = make([]selRef, len(q.sel))
	for i, a := range q.sel {
		r := relIndex(rels, a.Rel)
		if r < 0 {
			return nil, fmt.Errorf("query: SELECT references %s, not a FROM relation", a)
		}
		p.sel[i] = selRef{rel: r, name: a.Name, full: rels[r].schema.AttrIndex(a.Name), proj: rels[r].proj.AttrIndex(a.Name)}
	}
	return p, nil
}

// relIndex returns the position of the named relation in rels, or -1.
func relIndex(rels []relPlan, rel string) int {
	for i := range rels {
		if rels[i].schema.Name() == rel {
			return i
		}
	}
	return -1
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

// selValue reads SELECT attribute r from a tuple of its relation: by position
// when the tuple has the relation's catalog schema or the plan's projection
// schema, by name for any other schema of the relation.
func (q *Query) selValue(r selRef, t *relation.Tuple) (relation.Value, error) {
	switch t.Schema() {
	case q.plan.rels[r.rel].schema:
		return t.ValueAt(r.full), nil
	case q.plan.rels[r.rel].proj:
		return t.ValueAt(r.proj), nil
	}
	return t.Value(r.name)
}
