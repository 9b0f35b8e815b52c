package expr

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// TestVecFilterMatchesRowPredicate is the kernel equivalence property:
// for every predicate shape in the compile corpus — specialized
// comparisons, AND/OR rewiring, and row-fallback shapes (NOT, IN, LIKE,
// IS NULL, arithmetic) — the vectorized filter selects exactly the rows
// the compiled row predicate accepts, dense and under a prior selection.
func TestVecFilterMatchesRowPredicate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tuples := make([]value.Tuple, 1500)
	for i := range tuples {
		tuples[i] = randTuple(r)
	}
	batch := value.NewBatchFrom(testSchema, tuples)
	if batch == nil {
		t.Fatal("NewBatchFrom declined the test relation")
	}
	var sel []int32 // every third row, a prior selection
	for i := 0; i < len(tuples); i += 3 {
		sel = append(sel, int32(i))
	}
	for _, e := range exprCorpus() {
		pred, err := CompilePredicate(Clone(e), testSchema)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		vf, err := CompileVecFilter(Clone(e), testSchema)
		if err != nil {
			t.Fatalf("compile vec %s: %v", e, err)
		}
		var wantDense, wantSel []int32
		for i, tup := range tuples {
			ok, err := pred.Match(tup)
			if err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			if ok {
				wantDense = append(wantDense, int32(i))
				if i%3 == 0 {
					wantSel = append(wantSel, int32(i))
				}
			}
		}
		got, err := vf.Filter(batch, nil, nil)
		if err != nil {
			t.Fatalf("vec filter %s: %v", e, err)
		}
		if !equalSel(got, wantDense) {
			t.Errorf("%s dense: %d rows kept, row path kept %d", e, len(got), len(wantDense))
		}
		got, err = vf.Filter(batch, sel, nil)
		if err != nil {
			t.Fatalf("vec filter %s over sel: %v", e, err)
		}
		if !equalSel(got, wantSel) {
			t.Errorf("%s over sel: %d rows kept, row path kept %d", e, len(got), len(wantSel))
		}
	}
}

func equalSel(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestVecFilterKindMismatchFallsBack: a specialized kernel compiled for
// one kind must still answer correctly when the runtime vector carries
// another (possible on untyped transient intermediates) by dropping to
// the row comparison in-kernel.
func TestVecFilterKindMismatchFallsBack(t *testing.T) {
	// Schema says INT; the batch actually holds floats.
	s := value.MustSchema("x", "INT")
	vf, err := CompileVecFilter(NewCmp(GT, NewCol("x"), NewConst(value.NewInt(2))), s)
	if err != nil {
		t.Fatal(err)
	}
	batch := &value.Batch{
		Schema: s,
		Cols:   []*value.Vec{{Kind: value.KindFloat, F: []float64{1.5, 2.5, 3.5}}},
		Rows:   3,
	}
	got, err := vf.Filter(batch, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSel(got, []int32{1, 2}) {
		t.Errorf("mismatch fallback kept %v, want [1 2]", got)
	}
}

// TestCompileVecFilterRejectsNonBoolean mirrors CompilePredicate's
// contract.
func TestCompileVecFilterRejectsNonBoolean(t *testing.T) {
	if _, err := CompileVecFilter(NewCol("id"), testSchema); err == nil {
		t.Error("non-boolean expression accepted")
	}
	if _, err := CompileVecFilter(NewCol("nosuch"), testSchema); err == nil {
		t.Error("unknown column accepted")
	}
}

// TestColumnIndices: plain column lists resolve to positions; anything
// computed or unresolvable reports false.
func TestColumnIndices(t *testing.T) {
	idxs, ok := ColumnIndices([]Expr{NewCol("score"), NewCol("id")}, testSchema)
	if !ok || idxs[0] != 2 || idxs[1] != 0 {
		t.Errorf("ColumnIndices = %v, %v", idxs, ok)
	}
	if _, ok := ColumnIndices([]Expr{NewArith(Add, NewCol("id"), NewConst(value.NewInt(1)))}, testSchema); ok {
		t.Error("computed expression treated as a column remap")
	}
	if _, ok := ColumnIndices([]Expr{NewCol("nosuch")}, testSchema); ok {
		t.Error("unknown column treated as a column remap")
	}
}

// TestVecFilterTotal: a filter is total exactly when every node compiled
// to a typed comparison kernel — the shapes the OFM may run over rows it
// will discard afterwards. Anything that evaluates a row expression, or
// compares across kinds the kernels do not specialize, is not.
func TestVecFilterTotal(t *testing.T) {
	id, name, score := NewCol("id"), NewCol("name"), NewCol("score")
	num := func(n int64) Expr { return NewConst(value.NewInt(n)) }
	cases := []struct {
		e    Expr
		want bool
	}{
		{NewCmp(LT, id, num(5)), true},
		{NewCmp(GT, num(5), id), true}, // constant on the left
		{NewCmp(GE, score, num(2)), true},
		{NewCmp(EQ, name, NewConst(value.NewString("a"))), true},
		{NewCmp(NE, id, NewCol("id")), true},
		{NewAnd(NewCmp(LT, id, num(5)), NewOr(NewCmp(GT, score, num(1)), NewCmp(EQ, id, num(3)))), true},
		{NewCmp(LT, id, NewConst(value.NewFloat(2.5))), false}, // generic comparison
		{NewCmp(GT, NewArith(Div, num(10), id), num(1)), false},
		{NewLike(name, "a%", false), false},
		{NewAnd(NewCmp(LT, id, num(5)), NewLike(name, "a%", false)), false},
		{NewOr(NewCmp(GT, NewArith(Add, id, num(1)), num(1)), NewCmp(LT, id, num(5))), false},
	}
	for _, c := range cases {
		vf, err := CompileVecFilter(Clone(c.e), testSchema)
		if err != nil {
			t.Fatalf("compile %s: %v", c.e, err)
		}
		if vf.Total() != c.want {
			t.Errorf("%s: Total() = %v, want %v", c.e, vf.Total(), c.want)
		}
	}
}
