package expr

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// randTuple produces a random tuple matching testSchema, with occasional
// NULLs to exercise three-valued logic.
func randTuple(r *rand.Rand) value.Tuple {
	t := make(value.Tuple, 4)
	if r.Intn(10) == 0 {
		t[0] = value.Null
	} else {
		t[0] = value.NewInt(r.Int63n(1000))
	}
	names := []string{"ann", "bob", "cat", "dave", "eve", ""}
	t[1] = value.NewString(names[r.Intn(len(names))])
	t[2] = value.NewFloat(r.Float64() * 100)
	t[3] = value.NewBool(r.Intn(2) == 0)
	return t
}

// exprCorpus returns a set of predicates covering every kernel shape and
// the interpreter's fallbacks.
func exprCorpus() []Expr {
	col := func(n string) Expr { return NewCol(n) }
	ic := func(i int64) Expr { return NewConst(value.NewInt(i)) }
	return []Expr{
		NewCmp(EQ, col("id"), ic(500)),
		NewCmp(NE, col("id"), ic(500)),
		NewCmp(LT, col("id"), ic(500)),
		NewCmp(LE, col("id"), ic(500)),
		NewCmp(GT, col("id"), ic(500)),
		NewCmp(GE, col("id"), ic(500)),
		NewCmp(LT, ic(500), col("id")), // const-on-left normalization
		NewCmp(EQ, col("name"), NewConst(value.NewString("bob"))),
		NewCmp(GE, col("name"), NewConst(value.NewString("c"))),
		NewCmp(GT, col("score"), NewConst(value.NewFloat(50))),
		NewCmp(LE, col("score"), NewConst(value.NewInt(25))),
		NewCmp(LT, col("id"), col("id")),
		NewAnd(NewCmp(GT, col("id"), ic(100)), NewCmp(LT, col("id"), ic(900))),
		NewOr(NewCmp(LT, col("id"), ic(100)), NewCmp(GT, col("id"), ic(900))),
		NewNot(NewCmp(EQ, col("id"), ic(500))),
		NewIsNull(col("id"), false),
		NewIsNull(col("id"), true),
		NewIn(col("id"), []value.Value{value.NewInt(1), value.NewInt(2), value.NewInt(3)}, false),
		NewIn(col("id"), []value.Value{value.NewInt(1)}, true),
		NewIn(col("name"), []value.Value{value.NewString("ann"), value.NewString("eve")}, false),
		NewIn(col("id"), []value.Value{value.NewInt(1), value.Null}, false),
		NewIn(col("id"), []value.Value{value.NewInt(1), value.Null}, true),
		NewNot(NewIn(col("id"), []value.Value{value.Null, value.NewInt(500)}, false)),
		NewIn(col("id"), []value.Value{value.Null}, true),
		NewIn(col("name"), []value.Value{value.NewString("bob"), value.Null}, true),
		NewIn(col("id"), []value.Value{value.NewFloat(500), value.NewInt(3), value.NewFloat(7.5)}, false),
		NewIn(col("score"), []value.Value{value.NewInt(50), value.NewFloat(25.5)}, true),
		NewLike(col("name"), "a%", false),
		NewLike(col("name"), "%v%", false),
		NewLike(col("name"), "_o_", false),
		NewLike(col("name"), "b%", true),
		col("active"),
		NewAnd(col("active"), NewCmp(GT, col("score"), NewConst(value.NewFloat(10)))),
		NewCmp(EQ, NewArith(Mod, col("id"), ic(7)), ic(0)),
		NewCmp(GT, NewArith(Add, col("id"), ic(5)), ic(500)),
		NewCmp(LT, NewArith(Mul, col("id"), ic(2)), NewArith(Sub, col("id"), ic(-100))),
		NewCmp(GT, NewCall("abs", NewArith(Sub, col("id"), ic(500))), ic(250)),
		NewCmp(EQ, NewArith(Div, col("id"), ic(7)), ic(10)),
		NewCmp(LT, NewNeg(col("id")), ic(-500)),
		NewCmp(GE, col("score"), col("id")),
		NewCmp(GT, NewArith(Add, col("score"), col("id")), ic(600)),
		NewCmp(GT, NewArith(Mul, col("score"), NewConst(value.NewFloat(2.5))), NewArith(Sub, col("id"), ic(3))),
		NewCmp(LE, NewArith(Div, col("score"), ic(4)), NewConst(value.NewFloat(12.5))),
		NewCmp(EQ, NewCall("length", col("name")), ic(3)),
	}
}

func TestFilterInto(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	tuples := make([]value.Tuple, 1000)
	for i := range tuples {
		tuples[i] = randTuple(r)
	}
	pred, err := CompilePredicate(
		NewCmp(LT, NewCol("id"), NewConst(value.NewInt(500))), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pred.FilterInto(nil, tuples)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tup := range tuples {
		if !tup[0].IsNull() && tup[0].Int() < 500 {
			n++
		}
	}
	if len(out) != n {
		t.Fatalf("FilterInto kept %d, want %d", len(out), n)
	}
	for _, tup := range out {
		if tup[0].IsNull() || tup[0].Int() >= 500 {
			t.Fatalf("filter kept bad tuple %v", tup)
		}
	}
}

func TestCompiledRuntimeFault(t *testing.T) {
	// Division by zero must surface as an error, not a panic, at every
	// API boundary: the row predicate, the filter kernel and a computed
	// projection.
	e := NewCmp(GT, NewArith(Div, NewConst(value.NewInt(1)), NewCol("id")), NewConst(value.NewInt(0)))
	pred, err := CompilePredicate(Clone(e), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	zero := value.NewTuple(value.NewInt(0), value.NewString(""), value.NewFloat(0), value.NewBool(false))
	if _, err := pred.Match(zero); err == nil {
		t.Error("Match should report division by zero")
	}
	if _, err := pred.FilterInto(nil, []value.Tuple{zero}); err == nil {
		t.Error("FilterInto should report division by zero")
	}
	vf, err := CompileVecFilter(Clone(e), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	batch := value.NewBatchFrom(testSchema, []value.Tuple{zero})
	if _, err := vf.Filter(batch, nil, nil); err == nil {
		t.Error("Filter should report division by zero")
	}
	proj, err := CompileProjection([]Expr{NewArith(Div, NewConst(value.NewInt(1)), NewCol("id"))}, nil, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proj.Apply(batch); err == nil {
		t.Error("Apply should report division by zero")
	}
}

func TestCompilePredicateRejectsNonBool(t *testing.T) {
	if _, err := CompilePredicate(NewCol("id"), testSchema); err == nil {
		t.Error("int-typed predicate should be rejected")
	}
	if _, err := CompilePredicate(NewCol("nosuch"), testSchema); err == nil {
		t.Error("unknown column should be rejected")
	}
}

func TestCompiledNullHandling(t *testing.T) {
	nullID := value.NewTuple(value.Null, value.NewString("x"), value.NewFloat(1), value.NewBool(true))
	pred, err := CompilePredicate(NewCmp(EQ, NewCol("id"), NewConst(value.NewInt(1))), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := pred.Match(nullID)
	if err != nil || ok {
		t.Errorf("NULL = 1 must not match; got %v, %v", ok, err)
	}
	// NOT (NULL = 1) is NULL, still no match.
	pred2, err := CompilePredicate(NewNot(NewCmp(EQ, NewCol("id"), NewConst(value.NewInt(1)))), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = pred2.Match(nullID)
	if err != nil || ok {
		t.Errorf("NOT (NULL = 1) must not match; got %v, %v", ok, err)
	}
	// id IS NULL matches.
	pred3, err := CompilePredicate(NewIsNull(NewCol("id"), false), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = pred3.Match(nullID)
	if err != nil || !ok {
		t.Errorf("id IS NULL must match; got %v, %v", ok, err)
	}
}
