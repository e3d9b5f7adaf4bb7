package query

import (
	"math"
	"testing"
	"testing/quick"

	"cqjoin/internal/relation"
)

var exprSchema = relation.MustSchema("R", "A", "B", "C")

func exprTuple(a, b, c float64) *relation.Tuple {
	return relation.MustTuple(exprSchema, relation.N(a), relation.N(b), relation.N(c))
}

func TestAttrEval(t *testing.T) {
	tp := exprTuple(1, 2, 3)
	v, err := Attr{Rel: "R", Name: "B"}.Eval(tp)
	if err != nil || !v.Equal(relation.N(2)) {
		t.Fatalf("attr eval = %v, %v", v, err)
	}
	if _, err := (Attr{Rel: "S", Name: "B"}).Eval(tp); err == nil {
		t.Fatal("wrong-relation eval accepted")
	}
	if _, err := (Attr{Rel: "R", Name: "Z"}).Eval(tp); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestBinaryArithmetic(t *testing.T) {
	tp := exprTuple(6, 2, 0)
	cases := []struct {
		e    Expr
		want float64
	}{
		{Binary{'+', Attr{"R", "A"}, Attr{"R", "B"}}, 8},
		{Binary{'-', Attr{"R", "A"}, Attr{"R", "B"}}, 4},
		{Binary{'*', Attr{"R", "A"}, Attr{"R", "B"}}, 12},
		{Binary{'/', Attr{"R", "A"}, Attr{"R", "B"}}, 3},
		{Neg{Attr{"R", "A"}}, -6},
		{Binary{'+', Binary{'*', Const{relation.N(4)}, Attr{"R", "B"}}, Const{relation.N(8)}}, 16},
	}
	for _, c := range cases {
		v, err := c.e.Eval(tp)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		if !v.Equal(relation.N(c.want)) {
			t.Fatalf("%s = %v, want %v", c.e, v, c.want)
		}
	}
}

func TestBinaryErrors(t *testing.T) {
	tp := exprTuple(6, 0, 0)
	if _, err := (Binary{'/', Attr{"R", "A"}, Attr{"R", "B"}}).Eval(tp); err == nil {
		t.Fatal("division by zero accepted")
	}
	s := relation.MustSchema("S", "X")
	st := relation.MustTuple(s, relation.S("txt"))
	if _, err := (Binary{'*', Attr{"S", "X"}, Const{relation.N(2)}}).Eval(st); err == nil {
		t.Fatal("string multiplication accepted")
	}
	if _, err := (Neg{Attr{"S", "X"}}).Eval(st); err == nil {
		t.Fatal("string negation accepted")
	}
}

func TestStringConcat(t *testing.T) {
	s := relation.MustSchema("S", "X")
	st := relation.MustTuple(s, relation.S("ab"))
	v, err := (Binary{'+', Attr{"S", "X"}, Const{relation.S("cd")}}).Eval(st)
	if err != nil || !v.Equal(relation.S("abcd")) {
		t.Fatalf("concat = %v, %v", v, err)
	}
}

func TestAttrsAndRelations(t *testing.T) {
	e := Binary{'+', Binary{'*', Const{relation.N(4)}, Attr{"R", "B"}}, Attr{"R", "C"}}
	attrs := Attrs(e)
	if len(attrs) != 2 || attrs[0].Name != "B" || attrs[1].Name != "C" {
		t.Fatalf("Attrs = %v", attrs)
	}
	rels := Relations(e)
	if len(rels) != 1 || rels[0] != "R" {
		t.Fatalf("Relations = %v", rels)
	}
}

func TestConstFold(t *testing.T) {
	v, ok := ConstFold(Binary{'*', Const{relation.N(3)}, Const{relation.N(4)}})
	if !ok || !v.Equal(relation.N(12)) {
		t.Fatalf("ConstFold = %v, %v", v, ok)
	}
	if _, ok := ConstFold(Attr{"R", "A"}); ok {
		t.Fatal("ConstFold folded an attribute")
	}
	if _, ok := ConstFold(Binary{'/', Const{relation.N(1)}, Const{relation.N(0)}}); ok {
		t.Fatal("ConstFold folded a division by zero")
	}
}

func TestInvertible(t *testing.T) {
	cases := []struct {
		e    Expr
		want bool
	}{
		{Attr{"R", "A"}, true},
		{Binary{'+', Attr{"R", "A"}, Const{relation.N(5)}}, true},
		{Binary{'-', Const{relation.N(5)}, Attr{"R", "A"}}, true},
		{Binary{'*', Const{relation.N(2)}, Attr{"R", "A"}}, true},
		{Neg{Attr{"R", "A"}}, true},
		{Binary{'*', Const{relation.N(0)}, Attr{"R", "A"}}, false},
		{Binary{'+', Attr{"R", "A"}, Attr{"R", "B"}}, false},
		{Binary{'*', Attr{"R", "A"}, Attr{"R", "A"}}, false},
		{Const{relation.N(1)}, false},
		{Binary{'+', Attr{"R", "A"}, Const{relation.S("x")}}, false},
	}
	for _, c := range cases {
		if got := Invertible(c.e); got != c.want {
			t.Errorf("Invertible(%s) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestInvertSolvesEquations(t *testing.T) {
	cases := []struct {
		e      Expr
		target float64
		want   float64
	}{
		{Attr{"R", "A"}, 7, 7},
		{Binary{'+', Attr{"R", "A"}, Const{relation.N(5)}}, 7, 2},
		{Binary{'-', Attr{"R", "A"}, Const{relation.N(5)}}, 7, 12},
		{Binary{'-', Const{relation.N(5)}, Attr{"R", "A"}}, 7, -2},
		{Binary{'*', Const{relation.N(4)}, Attr{"R", "A"}}, 8, 2},
		{Binary{'/', Attr{"R", "A"}, Const{relation.N(4)}}, 2, 8},
		{Binary{'/', Const{relation.N(8)}, Attr{"R", "A"}}, 2, 4},
		{Neg{Attr{"R", "A"}}, 3, -3},
		// 4*A + 8 = 16  →  A = 2  (the thesis §4.5 shape)
		{Binary{'+', Binary{'*', Const{relation.N(4)}, Attr{"R", "A"}}, Const{relation.N(8)}}, 16, 2},
	}
	for _, c := range cases {
		got, err := invert(c.e, relation.N(c.target))
		if err != nil {
			t.Fatalf("invert(%s, %v): %v", c.e, c.target, err)
		}
		if !got.Equal(relation.N(c.want)) {
			t.Fatalf("invert(%s, %v) = %v, want %v", c.e, c.target, got, c.want)
		}
	}
}

func TestInvertErrors(t *testing.T) {
	if _, err := invert(Binary{'+', Attr{"R", "A"}, Attr{"R", "B"}}, relation.N(1)); err == nil {
		t.Fatal("multi-attribute invert accepted")
	}
	if _, err := invert(Binary{'/', Const{relation.N(8)}, Attr{"R", "A"}}, relation.N(0)); err == nil {
		t.Fatal("c/x = 0 accepted")
	}
	if _, err := invert(Binary{'+', Attr{"R", "A"}, Const{relation.N(1)}}, relation.S("s")); err == nil {
		t.Fatal("string target through arithmetic accepted")
	}
	if _, err := invert(Binary{'*', Const{relation.N(0)}, Attr{"R", "A"}}, relation.N(4)); err == nil {
		t.Fatal("multiplication by zero accepted")
	}
}

// Property: for invertible linear expressions, Eval(invert(target)) == target.
func TestInvertRoundTripProperty(t *testing.T) {
	f := func(a8, b8 int8, target8 int16) bool {
		a := float64(a8)
		if a == 0 {
			a = 1
		}
		b, target := float64(b8), float64(target8)
		// e = a*X + b
		e := Binary{'+', Binary{'*', Const{relation.N(a)}, Attr{"R", "A"}}, Const{relation.N(b)}}
		x, err := invert(e, relation.N(target))
		if err != nil {
			return false
		}
		tp := exprTuple(x.Num(), 0, 0)
		got, err := e.Eval(tp)
		if err != nil {
			return false
		}
		return math.Abs(got.Num()-target) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredicateEval(t *testing.T) {
	s := relation.MustSchema("A", "Surname", "Age")
	tp := relation.MustTuple(s, relation.S("Smith"), relation.N(40))
	cases := []struct {
		p    Predicate
		want bool
	}{
		{Predicate{"A", OpEq, Attr{"A", "Surname"}, Const{relation.S("Smith")}}, true},
		{Predicate{"A", OpNe, Attr{"A", "Surname"}, Const{relation.S("Smith")}}, false},
		{Predicate{"A", OpGt, Attr{"A", "Age"}, Const{relation.N(30)}}, true},
		{Predicate{"A", OpLe, Attr{"A", "Age"}, Const{relation.N(30)}}, false},
		{Predicate{"A", OpLt, Attr{"A", "Surname"}, Const{relation.S("Z")}}, true},
		{Predicate{"A", OpGe, Attr{"A", "Age"}, Const{relation.N(40)}}, true},
		// Cross-type: = is false, != is true.
		{Predicate{"A", OpEq, Attr{"A", "Age"}, Const{relation.S("40")}}, false},
		{Predicate{"A", OpNe, Attr{"A", "Age"}, Const{relation.S("40")}}, true},
	}
	for _, c := range cases {
		got, err := c.p.Eval(tp)
		if err != nil {
			t.Fatalf("%s: %v", c.p, err)
		}
		if got != c.want {
			t.Fatalf("%s = %v, want %v", c.p, got, c.want)
		}
	}
	// Ordering across types errors.
	bad := Predicate{"A", OpLt, Attr{"A", "Age"}, Const{relation.S("x")}}
	if _, err := bad.Eval(tp); err == nil {
		t.Fatal("cross-type ordering accepted")
	}
}

func TestExprStrings(t *testing.T) {
	e := Binary{'+', Binary{'*', Const{relation.N(4)}, Attr{"R", "B"}}, Const{relation.N(8)}}
	if got := e.String(); got != "((4 * R.B) + 8)" {
		t.Fatalf("String = %q", got)
	}
	if got := (Const{relation.S("x")}).String(); got != "'x'" {
		t.Fatalf("const string = %q", got)
	}
	if got := (Neg{Attr{"R", "A"}}).String(); got != "-R.A" {
		t.Fatalf("neg string = %q", got)
	}
	p := Predicate{"A", OpGe, Attr{"A", "Age"}, Const{relation.N(1)}}
	if got := p.String(); got != "A.Age >= 1" {
		t.Fatalf("pred string = %q", got)
	}
}
