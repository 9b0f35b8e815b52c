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

// exprCorpus returns a set of predicates covering every compiled shape.
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
		NewCmp(EQ, NewCall("length", col("name")), ic(3)),
	}
}

// TestCompiledMatchesInterpreted is the central equivalence property: for
// every predicate shape and thousands of random tuples, the compiled
// program and the interpreter must agree exactly (including NULL).
func TestCompiledMatchesInterpreted(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tuples := make([]value.Tuple, 2000)
	for i := range tuples {
		tuples[i] = randTuple(r)
	}
	for _, e := range exprCorpus() {
		interp := Clone(e)
		if _, err := Bind(interp, testSchema); err != nil {
			t.Fatalf("bind %s: %v", e, err)
		}
		pred, err := CompilePredicate(Clone(e), testSchema)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		for _, tup := range tuples {
			iv, err := interp.Eval(tup)
			if err != nil {
				t.Fatalf("interpret %s on %v: %v", e, tup, err)
			}
			cv, err := pred.Match(tup)
			if err != nil {
				t.Fatalf("compiled %s on %v: %v", e, tup, err)
			}
			if Truthy(iv) != cv {
				t.Fatalf("%s on %v: interpreted %v, compiled %v", e, tup, iv, cv)
			}
		}
	}
}

// TestCompiledProgramMatchesInterpretedValues: a compiled one-expression
// projector computes the value the interpreter does, errors included.
func TestCompiledProgramMatchesInterpretedValues(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	tuples := make([]value.Tuple, 500)
	for i := range tuples {
		tuples[i] = randTuple(r)
	}
	exprs := []Expr{
		NewArith(Add, NewCol("id"), NewConst(value.NewInt(3))),
		NewArith(Mul, NewCol("score"), NewConst(value.NewFloat(2))),
		NewArith(Sub, NewCol("id"), NewCol("id")),
		NewCall("upper", NewCol("name")),
		NewCall("abs", NewNeg(NewCol("id"))),
		NewCmp(GT, NewCol("id"), NewConst(value.NewInt(10))),
	}
	for _, e := range exprs {
		interp := Clone(e)
		if _, err := Bind(interp, testSchema); err != nil {
			t.Fatalf("bind %s: %v", e, err)
		}
		proj, err := CompileProjector([]Expr{Clone(e)}, nil, testSchema)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		for _, tup := range tuples {
			iv, ierr := interp.Eval(tup)
			out, cerr := proj.Apply(tup)
			if (ierr == nil) != (cerr == nil) {
				t.Fatalf("%s on %v: interp err %v, compiled err %v", e, tup, ierr, cerr)
			}
			if ierr == nil && !sameNullable(iv, out[0]) {
				t.Fatalf("%s on %v: interpreted %v, compiled %v", e, tup, iv, out[0])
			}
		}
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
	n, err := pred.Count(tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("FilterInto kept %d, Count says %d", len(out), n)
	}
	for _, tup := range out {
		if tup[0].IsNull() || tup[0].Int() >= 500 {
			t.Fatalf("filter kept bad tuple %v", tup)
		}
	}
}

func TestCompiledRuntimeFault(t *testing.T) {
	// Division by zero in compiled code must surface as an error, not a
	// panic, at every API boundary.
	e := NewCmp(GT, NewArith(Div, NewConst(value.NewInt(1)), NewCol("id")), NewConst(value.NewInt(0)))
	pred, err := CompilePredicate(e, testSchema)
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
	if _, err := pred.Count([]value.Tuple{zero}); err == nil {
		t.Error("Count should report division by zero")
	}
	proj, err := CompileProjector([]Expr{NewArith(Div, NewConst(value.NewInt(1)), NewCol("id"))}, nil, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proj.Apply(zero); err == nil {
		t.Error("Apply should report division by zero")
	}
	if _, err := proj.ApplyBatch([]value.Tuple{zero}); err == nil {
		t.Error("ApplyBatch should report division by zero")
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

func TestProjector(t *testing.T) {
	proj, err := CompileProjector(
		[]Expr{NewCol("name"), NewArith(Mul, NewCol("id"), NewConst(value.NewInt(10)))},
		[]string{"who", "tenfold"},
		testSchema,
	)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Schema().Column(0).Name != "who" || proj.Schema().Column(1).Name != "tenfold" {
		t.Errorf("projector schema = %v", proj.Schema())
	}
	if proj.Schema().Column(1).Kind != value.KindInt {
		t.Errorf("projected kind = %v", proj.Schema().Column(1).Kind)
	}
	out, err := proj.Apply(row(4, "ann", 0, true))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Str() != "ann" || out[1].Int() != 40 {
		t.Errorf("Apply gave %v", out)
	}
	batch, err := proj.ApplyBatch([]value.Tuple{row(1, "a", 0, true), row(2, "b", 0, true)})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[1][1].Int() != 20 {
		t.Errorf("ApplyBatch gave %v", batch)
	}
	// Autonamed column.
	proj2, err := CompileProjector([]Expr{NewCol("id")}, nil, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if proj2.Schema().Column(0).Name != "id" {
		t.Errorf("autoname = %q", proj2.Schema().Column(0).Name)
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
