package expr

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/value"
)

var testSchema = value.MustSchema(
	"id", "INT",
	"name", "VARCHAR",
	"score", "FLOAT",
	"active", "BOOL",
)

func row(id int64, name string, score float64, active bool) value.Tuple {
	return value.NewTuple(value.NewInt(id), value.NewString(name), value.NewFloat(score), value.NewBool(active))
}

// evalOn binds e and interprets it against t, failing the test on error.
func evalOn(t *testing.T, e Expr, tup value.Tuple) value.Value {
	t.Helper()
	if _, err := Bind(e, testSchema); err != nil {
		t.Fatalf("bind %s: %v", e, err)
	}
	v, err := e.Eval(tup)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestColAndConst(t *testing.T) {
	tup := row(7, "ann", 1.5, true)
	if v := evalOn(t, NewCol("id"), tup); v.Int() != 7 {
		t.Errorf("id = %v", v)
	}
	if v := evalOn(t, NewCol("NAME"), tup); v.Str() != "ann" {
		t.Errorf("case-insensitive col = %v", v)
	}
	if v := evalOn(t, NewConst(value.NewInt(3)), tup); v.Int() != 3 {
		t.Errorf("const = %v", v)
	}
}

func TestUnboundColErrors(t *testing.T) {
	c := NewCol("id")
	if _, err := c.Eval(row(1, "x", 0, false)); err == nil {
		t.Error("unbound column should error at Eval")
	}
	if _, err := Bind(NewCol("nosuch"), testSchema); err == nil {
		t.Error("binding unknown column should error")
	}
}

func TestComparisons(t *testing.T) {
	tup := row(7, "ann", 1.5, true)
	cases := []struct {
		e    Expr
		want bool
	}{
		{NewCmp(EQ, NewCol("id"), NewConst(value.NewInt(7))), true},
		{NewCmp(NE, NewCol("id"), NewConst(value.NewInt(7))), false},
		{NewCmp(LT, NewCol("id"), NewConst(value.NewInt(10))), true},
		{NewCmp(LE, NewCol("id"), NewConst(value.NewInt(7))), true},
		{NewCmp(GT, NewCol("id"), NewConst(value.NewInt(7))), false},
		{NewCmp(GE, NewCol("id"), NewConst(value.NewInt(7))), true},
		{NewCmp(EQ, NewCol("name"), NewConst(value.NewString("ann"))), true},
		{NewCmp(LT, NewCol("name"), NewConst(value.NewString("zzz"))), true},
		{NewCmp(GT, NewCol("score"), NewConst(value.NewFloat(1.0))), true},
		{NewCmp(EQ, NewCol("score"), NewConst(value.NewInt(1))), false},
		{NewCmp(EQ, NewConst(value.NewInt(7)), NewCol("id")), true},
	}
	for _, c := range cases {
		v := evalOn(t, c.e, tup)
		if v.Kind() != value.KindBool || v.Bool() != c.want {
			t.Errorf("%s = %v, want %v", c.e, v, c.want)
		}
	}
}

func TestCmpNullSemantics(t *testing.T) {
	tup := value.NewTuple(value.Null, value.NewString("x"), value.NewFloat(0), value.NewBool(true))
	e := NewCmp(EQ, NewCol("id"), NewConst(value.NewInt(1)))
	if v := evalOn(t, e, tup); !v.IsNull() {
		t.Errorf("NULL = 1 should be NULL, got %v", v)
	}
}

func TestArithEval(t *testing.T) {
	tup := row(6, "x", 1.5, true)
	e := NewArith(Add, NewArith(Mul, NewCol("id"), NewConst(value.NewInt(2))), NewConst(value.NewInt(1)))
	if v := evalOn(t, e, tup); v.Int() != 13 {
		t.Errorf("6*2+1 = %v", v)
	}
	f := NewArith(Div, NewCol("score"), NewConst(value.NewFloat(0.5)))
	if v := evalOn(t, f, tup); v.Float() != 3.0 {
		t.Errorf("1.5/0.5 = %v", v)
	}
	m := NewArith(Mod, NewCol("id"), NewConst(value.NewInt(4)))
	if v := evalOn(t, m, tup); v.Int() != 2 {
		t.Errorf("6%%4 = %v", v)
	}
}

func TestDivisionByZeroErrors(t *testing.T) {
	e := NewArith(Div, NewCol("id"), NewConst(value.NewInt(0)))
	if _, err := Bind(e, testSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(row(1, "x", 0, false)); err == nil {
		t.Error("interpreter should report division by zero")
	}
}

func TestLogic(t *testing.T) {
	tup := row(7, "ann", 1.5, true)
	tr := NewConst(value.NewBool(true))
	fa := NewConst(value.NewBool(false))
	nu := NewConst(value.Null)
	cases := []struct {
		e    Expr
		want value.Value
	}{
		{NewAnd(tr, tr), value.NewBool(true)},
		{NewAnd(tr, fa), value.NewBool(false)},
		{NewAnd(fa, nu), value.NewBool(false)}, // false AND NULL = false
		{NewAnd(tr, nu), value.Null},
		{NewOr(fa, fa), value.NewBool(false)},
		{NewOr(fa, tr), value.NewBool(true)},
		{NewOr(tr, nu), value.NewBool(true)}, // true OR NULL = true
		{NewOr(fa, nu), value.Null},
		{NewNot(tr), value.NewBool(false)},
		{NewNot(fa), value.NewBool(true)},
		{NewNot(nu), value.Null},
	}
	for _, c := range cases {
		v := evalOn(t, c.e, tup)
		if !sameNullable(v, c.want) {
			t.Errorf("%s = %v, want %v", c.e, v, c.want)
		}
	}
}

func sameNullable(a, b value.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	return value.Equal(a, b)
}

func TestNegIsNullIn(t *testing.T) {
	tup := row(7, "ann", 1.5, true)
	if v := evalOn(t, NewNeg(NewCol("id")), tup); v.Int() != -7 {
		t.Errorf("-id = %v", v)
	}
	if v := evalOn(t, NewIsNull(NewCol("id"), false), tup); v.Bool() {
		t.Error("id IS NULL should be false")
	}
	if v := evalOn(t, NewIsNull(NewCol("id"), true), tup); !v.Bool() {
		t.Error("id IS NOT NULL should be true")
	}
	in := NewIn(NewCol("id"), []value.Value{value.NewInt(1), value.NewInt(7)}, false)
	if v := evalOn(t, in, tup); !v.Bool() {
		t.Error("id IN (1,7) should be true")
	}
	notIn := NewIn(NewCol("id"), []value.Value{value.NewInt(1)}, true)
	if v := evalOn(t, notIn, tup); !v.Bool() {
		t.Error("id NOT IN (1) should be true")
	}
	inNull := NewIn(NewConst(value.Null), []value.Value{value.NewInt(1)}, false)
	if v := evalOn(t, inNull, tup); !v.IsNull() {
		t.Error("NULL IN (...) should be NULL")
	}
	// A NULL item makes a non-member UNKNOWN, IN and NOT IN alike; a
	// member is still TRUE for IN and FALSE for NOT IN.
	withNull := []value.Value{value.NewInt(1), value.Null}
	for _, negate := range []bool{false, true} {
		if v := evalOn(t, NewIn(NewCol("id"), withNull, negate), tup); !v.IsNull() {
			t.Errorf("7 IN/NOT IN (1, NULL) (negate %v) = %v, want NULL", negate, v)
		}
		member := NewIn(NewCol("id"), []value.Value{value.Null, value.NewInt(7)}, negate)
		if v := evalOn(t, member, tup); v.IsNull() || v.Bool() == negate {
			t.Errorf("7 IN/NOT IN (NULL, 7) (negate %v) = %v", negate, v)
		}
	}
}

func TestCallBuiltins(t *testing.T) {
	tup := row(-4, "MiXeD", 1.5, true)
	if v := evalOn(t, NewCall("abs", NewCol("id")), tup); v.Int() != 4 {
		t.Errorf("ABS(-4) = %v", v)
	}
	if v := evalOn(t, NewCall("length", NewCol("name")), tup); v.Int() != 5 {
		t.Errorf("LENGTH = %v", v)
	}
	if v := evalOn(t, NewCall("lower", NewCol("name")), tup); v.Str() != "mixed" {
		t.Errorf("LOWER = %v", v)
	}
	if v := evalOn(t, NewCall("upper", NewCol("name")), tup); v.Str() != "MIXED" {
		t.Errorf("UPPER = %v", v)
	}
	if _, err := Bind(NewCall("nosuch", NewCol("id")), testSchema); err == nil {
		t.Error("unknown function should fail to bind")
	}
	if _, err := Bind(NewCall("abs"), testSchema); err == nil {
		t.Error("ABS with no args should fail to bind")
	}
}

func TestBindTypeErrors(t *testing.T) {
	bad := []Expr{
		NewCmp(EQ, NewCol("id"), NewConst(value.NewString("x"))),
		NewArith(Add, NewCol("active"), NewConst(value.NewInt(1))),
		NewArith(Mod, NewCol("score"), NewConst(value.NewInt(2))),
		NewAnd(NewCol("id"), NewConst(value.NewBool(true))),
		NewOr(NewConst(value.NewBool(true)), NewCol("name")),
		NewNot(NewCol("id")),
		NewNeg(NewCol("name")),
		NewLike(NewCol("id"), "a%", false),
		NewIn(NewCol("id"), []value.Value{value.NewString("x")}, false),
	}
	for _, e := range bad {
		if _, err := Bind(e, testSchema); err == nil {
			t.Errorf("Bind(%s) should fail", e)
		}
	}
}

func TestBindInferredKinds(t *testing.T) {
	cases := []struct {
		e    Expr
		want value.Kind
	}{
		{NewCol("id"), value.KindInt},
		{NewCol("score"), value.KindFloat},
		{NewArith(Add, NewCol("id"), NewCol("id")), value.KindInt},
		{NewArith(Add, NewCol("id"), NewCol("score")), value.KindFloat},
		{NewArith(Add, NewCol("name"), NewCol("name")), value.KindString},
		{NewCmp(LT, NewCol("id"), NewCol("score")), value.KindBool},
		{NewIsNull(NewCol("name"), false), value.KindBool},
	}
	for _, c := range cases {
		k, err := Bind(c.e, testSchema)
		if err != nil {
			t.Fatalf("bind %s: %v", c.e, err)
		}
		if k != c.want {
			t.Errorf("kind of %s = %v, want %v", c.e, k, c.want)
		}
	}
}

func TestConjoinSplit(t *testing.T) {
	a := NewCmp(GT, NewCol("id"), NewConst(value.NewInt(1)))
	b := NewCmp(LT, NewCol("id"), NewConst(value.NewInt(9)))
	c := NewIsNull(NewCol("name"), true)
	e := Conjoin([]Expr{a, nil, b, c})
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("SplitConjuncts returned %d parts", len(parts))
	}
	if Conjoin(nil) != nil {
		t.Error("Conjoin(nil) should be nil")
	}
	if got := Conjoin([]Expr{a}); got != a {
		t.Error("Conjoin of one element should be that element")
	}
	if parts := SplitConjuncts(nil); parts != nil {
		t.Error("SplitConjuncts(nil) should be nil")
	}
}

func TestColumnsAndNames(t *testing.T) {
	e := NewAnd(
		NewCmp(GT, NewCol("score"), NewConst(value.NewFloat(0))),
		NewCmp(EQ, NewCol("id"), NewConst(value.NewInt(1))),
	)
	if _, err := Bind(e, testSchema); err != nil {
		t.Fatal(err)
	}
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 {
		t.Errorf("Columns = %v, want [0 2]", cols)
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := NewAnd(
		NewCmp(GT, NewCol("id"), NewConst(value.NewInt(0))),
		NewLike(NewCol("name"), "a%", false),
	)
	cl := Clone(e).(*And)
	if _, err := Bind(cl, testSchema); err != nil {
		t.Fatal(err)
	}
	// The original is still unbound: clone binding must not leak.
	origCol := e.L.(*Cmp).L.(*Col)
	if origCol.Index != -1 {
		t.Error("Clone shared Col nodes with the original")
	}
}

func TestMapCols(t *testing.T) {
	e := NewCmp(EQ, NewCol("id"), NewCol("score"))
	if _, err := Bind(e, testSchema); err != nil {
		t.Fatal(err)
	}
	MapCols(e, func(i int) int { return i + 10 })
	if e.L.(*Col).Index != 10 || e.R.(*Col).Index != 12 {
		t.Errorf("MapCols gave %d, %d", e.L.(*Col).Index, e.R.(*Col).Index)
	}
}

func TestStringRendering(t *testing.T) {
	e := NewAnd(
		NewCmp(GE, NewCol("id"), NewConst(value.NewInt(1))),
		NewOr(NewLike(NewCol("name"), "a%", false), NewNot(NewCol("active"))),
	)
	s := e.String()
	for _, frag := range []string{"id >= 1", "LIKE 'a%'", "NOT", "AND", "OR"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestTruthy(t *testing.T) {
	if Truthy(value.Null) || Truthy(value.NewBool(false)) || Truthy(value.NewInt(1)) {
		t.Error("only boolean true is truthy")
	}
	if !Truthy(value.NewBool(true)) {
		t.Error("boolean true is truthy")
	}
}

func TestCmpOpSwap(t *testing.T) {
	cases := map[CmpOp]CmpOp{EQ: EQ, NE: NE, LT: GT, LE: GE, GT: LT, GE: LE}
	for op, want := range cases {
		if op.Swap() != want {
			t.Errorf("%v.Swap() = %v, want %v", op, op.Swap(), want)
		}
	}
}

// TestColSetAllocatesNothing: the executor asks for an expression's columns
// on every statement, the point path included.
func TestColSetAllocatesNothing(t *testing.T) {
	s := value.MustSchema("id", "INT", "region", "VARCHAR", "balance", "INT")
	e := NewAnd(NewCmp(LT, NewCol("balance"), NewConst(value.NewInt(5))), NewCmp(EQ, NewCol("id"), NewCol("nosuch")))
	if got := ColSet(e.L, s); got != value.ColSet(0).With(2) {
		t.Errorf("columns of %s = %b", e.L, got)
	}
	if got := ColSet(e, s); got != value.AllCols {
		t.Errorf("an unknown column must ask for everything, got %b", got)
	}
	if n := testing.AllocsPerRun(100, func() { ColSet(e.L, s) }); n != 0 {
		t.Errorf("ColSet allocates %v times", n)
	}
}

// TestFindColEq: the one `col = key` recognizer finds the column on either
// side, a constant or a placeholder key, skips what accept rejects and
// conjoins the rest.
func TestFindColEq(t *testing.T) {
	seven := NewConst(value.NewInt(7))
	onID := func(col *Col, _ Expr) bool { return col.Name == "id" }
	cases := []struct {
		e        Expr
		key      Expr
		rest     string
		accepted bool
	}{
		{NewCmp(EQ, NewCol("id"), seven), seven, "<nil>", true},
		{NewCmp(EQ, seven, NewCol("id")), seven, "<nil>", true},
		{NewCmp(EQ, NewCol("id"), NewParam(0)), nil, "<nil>", true},
		{NewCmp(LT, NewCol("id"), seven), nil, "", false},
		{NewCmp(EQ, NewCol("id"), NewCol("name")), nil, "", false},
		{NewCmp(EQ, NewCol("name"), seven), nil, "", false},
		{Conjoin([]Expr{NewCmp(EQ, NewCol("name"), seven), NewCmp(EQ, NewCol("id"), seven), NewIsNull(NewCol("score"), false)}),
			seven, "(name = 7 AND (score IS NULL))", true},
		{NewOr(NewCmp(EQ, NewCol("id"), seven), NewCmp(EQ, NewCol("id"), seven)), nil, "", false},
	}
	for _, c := range cases {
		key, rest, ok := FindColEq(c.e, onID)
		if ok != c.accepted {
			t.Errorf("%s: found %v, want %v", c.e, ok, c.accepted)
			continue
		}
		if !ok {
			if rest != c.e {
				t.Errorf("%s: not found, but rest is %v", c.e, rest)
			}
			continue
		}
		if c.key != nil && key != c.key {
			t.Errorf("%s: key %v, want %v", c.e, key, c.key)
		}
		if _, isParam := key.(*Param); c.key == nil && !isParam {
			t.Errorf("%s: key %v, want the placeholder", c.e, key)
		}
		if got := fmt.Sprint(rest); got != c.rest {
			t.Errorf("%s: rest %s, want %s", c.e, got, c.rest)
		}
	}
}
