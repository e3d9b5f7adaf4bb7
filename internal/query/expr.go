// Package query implements the continuous-query language of Section 3.2:
// SQL two-way equi-joins of the form
//
//	SELECT R.A1, ..., S.B1, ... FROM R, S WHERE α = β [AND pred ...]
//
// where α is an expression over attributes of R (and constants) and β over
// attributes of S. Queries are classified as type T1 — each side involves a
// single attribute and the equality has a unique solution — or type T2
// (anything else), which only the DAI-V algorithm of Section 4.5 can
// evaluate. The same form over more relations, their conditions linking
// them into a chain, is the multi-way join of the Chapter 7 extension.
package query

import (
	"fmt"
	"strings"

	"cqjoin/internal/relation"
)

// Expr is one side of a join condition, or a side of a selection predicate:
// an arithmetic/string expression over the attributes of a single relation
// and constants.
type Expr interface {
	// Eval computes the expression over the tuple's attribute values. The
	// tuple must belong to the relation the expression's attributes
	// reference.
	Eval(t *relation.Tuple) (relation.Value, error)
	// String renders the expression in SQL syntax.
	String() string
}

// Attr references attribute Name of relation Rel (alias-resolved).
type Attr struct {
	Rel  string
	Name string
}

// Eval returns the attribute's value in the tuple.
func (a Attr) Eval(t *relation.Tuple) (relation.Value, error) {
	if t.Relation() != a.Rel {
		return relation.Value{}, fmt.Errorf("query: attribute %s evaluated against tuple of %s", a, t.Relation())
	}
	return t.Value(a.Name)
}

// String renders Rel.Name.
func (a Attr) String() string { return a.Rel + "." + a.Name }

// Const is a literal value.
type Const struct {
	Val relation.Value
}

// Eval returns the literal.
func (c Const) Eval(*relation.Tuple) (relation.Value, error) { return c.Val, nil }

// String renders the literal in SQL syntax.
func (c Const) String() string {
	if c.Val.Kind() == relation.String {
		return "'" + c.Val.Str() + "'"
	}
	return c.Val.Canon()
}

// Binary is an arithmetic operation, or string concatenation for '+' over
// strings.
type Binary struct {
	Op   byte // one of + - * /
	L, R Expr
}

// Eval applies the operator to the operand values.
func (b Binary) Eval(t *relation.Tuple) (relation.Value, error) {
	l, err := b.L.Eval(t)
	if err != nil {
		return relation.Value{}, err
	}
	r, err := b.R.Eval(t)
	if err != nil {
		return relation.Value{}, err
	}
	return applyOp(b.Op, l, r)
}

// String renders the operation fully parenthesized.
func (b Binary) String() string {
	return fmt.Sprintf("(%s %c %s)", b.L, b.Op, b.R)
}

// Neg is unary numeric negation.
type Neg struct {
	X Expr
}

// Eval negates the operand.
func (n Neg) Eval(t *relation.Tuple) (relation.Value, error) {
	v, err := n.X.Eval(t)
	if err != nil {
		return relation.Value{}, err
	}
	if v.Kind() != relation.Number {
		return relation.Value{}, fmt.Errorf("query: negation of non-numeric value %s", v)
	}
	return relation.N(-v.Num()), nil
}

// String renders -expr.
func (n Neg) String() string { return "-" + n.X.String() }

func applyOp(op byte, l, r relation.Value) (relation.Value, error) {
	if op == '+' && l.Kind() == relation.String && r.Kind() == relation.String {
		return relation.S(l.Str() + r.Str()), nil
	}
	if l.Kind() != relation.Number || r.Kind() != relation.Number {
		return relation.Value{}, fmt.Errorf("query: operator %c over non-numeric operands %s, %s", op, l, r)
	}
	a, b := l.Num(), r.Num()
	switch op {
	case '+':
		return relation.N(a + b), nil
	case '-':
		return relation.N(a - b), nil
	case '*':
		return relation.N(a * b), nil
	case '/':
		if b == 0 {
			return relation.Value{}, fmt.Errorf("query: division by zero")
		}
		return relation.N(a / b), nil
	default:
		return relation.Value{}, fmt.Errorf("query: unknown operator %c", op)
	}
}

// Attrs returns every attribute occurrence in the expression, in
// left-to-right order (with repetitions).
func Attrs(e Expr) []Attr {
	var out []Attr
	walk(e, func(a Attr) { out = append(out, a) })
	return out
}

// Relations returns the distinct relation names referenced by e.
func Relations(e Expr) []string {
	seen := make(map[string]bool)
	var out []string
	walk(e, func(a Attr) {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			out = append(out, a.Rel)
		}
	})
	return out
}

func walk(e Expr, f func(Attr)) {
	switch x := e.(type) {
	case Attr:
		f(x)
	case Binary:
		walk(x.L, f)
		walk(x.R, f)
	case Neg:
		walk(x.X, f)
	}
}

// ConstFold evaluates e when it contains no attribute references.
func ConstFold(e Expr) (relation.Value, bool) {
	if len(Attrs(e)) != 0 {
		return relation.Value{}, false
	}
	v, err := e.Eval(nil)
	if err != nil {
		return relation.Value{}, false
	}
	return v, true
}

// Invertible reports whether e is a single-attribute expression that can be
// solved for its attribute: a bare attribute, or a chain of +, -, *, /
// and negation where the other operand of every operation is constant
// (and multiplication/division by zero is excluded statically where the
// constant is known). This is the structural condition for one side of a
// type-T1 query: "equality α = β has a unique solution" (Section 3.2).
func Invertible(e Expr) bool {
	if len(Attrs(e)) != 1 {
		return false
	}
	return invertibleStruct(e)
}

func invertibleStruct(e Expr) bool {
	switch x := e.(type) {
	case Attr:
		return true
	case Neg:
		return invertibleStruct(x.X)
	case Binary:
		lc, lIsConst := ConstFold(x.L)
		rc, rIsConst := ConstFold(x.R)
		switch {
		case rIsConst:
			if rc.Kind() != relation.Number {
				return false // string concat is not invertible in general
			}
			if (x.Op == '*' || x.Op == '/') && rc.Num() == 0 {
				return false
			}
			return invertibleStruct(x.L)
		case lIsConst:
			if lc.Kind() != relation.Number {
				return false
			}
			if x.Op == '*' && lc.Num() == 0 {
				return false
			}
			return invertibleStruct(x.R)
		default:
			return false
		}
	default:
		return false
	}
}

// invert solves e(x) = target for the single attribute x of e, returning
// the value x must take. It fails when e is not invertible, when the target
// has the wrong type, or when solving hits an arithmetic impossibility
// (e.g. c/x = 0). StageWant uses it for the value the next stage's
// attribute must take, given a tuple's value of the other side.
func invert(e Expr, target relation.Value) (relation.Value, error) {
	switch x := e.(type) {
	case Attr:
		return target, nil
	case Neg:
		if target.Kind() != relation.Number {
			return relation.Value{}, fmt.Errorf("query: invert negation with non-numeric target %s", target)
		}
		return invert(x.X, relation.N(-target.Num()))
	case Binary:
		if target.Kind() != relation.Number {
			return relation.Value{}, fmt.Errorf("query: invert %c with non-numeric target %s", x.Op, target)
		}
		tv := target.Num()
		if rc, ok := ConstFold(x.R); ok {
			if rc.Kind() != relation.Number {
				return relation.Value{}, fmt.Errorf("query: invert through string operand")
			}
			c := rc.Num()
			switch x.Op {
			case '+':
				return invert(x.L, relation.N(tv-c))
			case '-':
				return invert(x.L, relation.N(tv+c))
			case '*':
				if c == 0 {
					return relation.Value{}, fmt.Errorf("query: invert multiplication by zero")
				}
				return invert(x.L, relation.N(tv/c))
			case '/':
				return invert(x.L, relation.N(tv*c))
			}
		}
		if lc, ok := ConstFold(x.L); ok {
			if lc.Kind() != relation.Number {
				return relation.Value{}, fmt.Errorf("query: invert through string operand")
			}
			c := lc.Num()
			switch x.Op {
			case '+':
				return invert(x.R, relation.N(tv-c))
			case '-':
				return invert(x.R, relation.N(c-tv))
			case '*':
				if c == 0 {
					return relation.Value{}, fmt.Errorf("query: invert multiplication by zero")
				}
				return invert(x.R, relation.N(tv/c))
			case '/':
				if tv == 0 {
					return relation.Value{}, fmt.Errorf("query: invert c/x = 0 has no solution")
				}
				return invert(x.R, relation.N(c/tv))
			}
		}
		return relation.Value{}, fmt.Errorf("query: expression %s is not invertible", e)
	default:
		return relation.Value{}, fmt.Errorf("query: cannot invert %T", e)
	}
}

// CmpOp is a comparison operator in a selection predicate.
type CmpOp string

// Comparison operators supported in selection predicates. The join
// condition itself is always equality.
const (
	OpEq CmpOp = "="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Predicate is a selection predicate conjoined with the join condition,
// e.g. A.Surname = 'Smith' in the Section 3.2 example. Both sides reference
// at most the single relation Rel.
type Predicate struct {
	Rel  string
	Op   CmpOp
	L, R Expr
}

// Eval reports whether the tuple satisfies the predicate.
func (p Predicate) Eval(t *relation.Tuple) (bool, error) {
	l, err := p.L.Eval(t)
	if err != nil {
		return false, err
	}
	r, err := p.R.Eval(t)
	if err != nil {
		return false, err
	}
	return compare(p.Op, l, r)
}

// String renders the predicate in SQL syntax.
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.L, p.Op, p.R)
}

func compare(op CmpOp, l, r relation.Value) (bool, error) {
	if l.Kind() != r.Kind() {
		// Cross-type comparisons are false for =, true for !=, errors
		// otherwise.
		switch op {
		case OpEq:
			return false, nil
		case OpNe:
			return true, nil
		default:
			return false, fmt.Errorf("query: ordering comparison across types %s %s %s", l, op, r)
		}
	}
	var c int
	if l.Kind() == relation.String {
		c = strings.Compare(l.Str(), r.Str())
	} else {
		switch {
		case l.Num() < r.Num():
			c = -1
		case l.Num() > r.Num():
			c = 1
		}
	}
	switch op {
	case OpEq:
		return c == 0, nil
	case OpNe:
		return c != 0, nil
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	case OpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("query: unknown comparison %q", op)
	}
}
